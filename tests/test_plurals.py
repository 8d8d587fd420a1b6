import pytest

from conftest import analyze
from udrs import (
    DISTRIBUTION, GROUP, DiscourseReferent, Membership, Predicate, Quantifier, ReferentIntro,
    closure, count_readings,
)
from udrs.plurals import (
    COLLECTIVE, DISTRIBUTIVE, UNKNOWN, AlreadyDisambiguated, KnowledgeRules,
    NotPlural, decide, pl_dis_collective, pl_dis_distributive, target_for,
)
from udrs.delay import PendingKey
from udrs.serialize import display_names


def fixture_11():
    """Session for the underspecified plural sentence, plus its target."""
    session = analyze("The lawyers hired a secretary.")
    key = session.ctx.registry.unresolved()[0]
    target = target_for(session.udrs, key.np_l_max, key.np_l_min)
    return session, target


def hire_pred(u):
    return next(c for c in u.conds if isinstance(c, Predicate) and c.rel == "hire")


class TestCollective:
    def test_structure_15(self):
        session, target = fixture_11()
        before = session.udrs
        after = pl_dis_collective(before, target)
        assert after.conds == before.conds
        assert after.subord > before.subord
        added = after.subord - before.subord
        assert len(added) == 1
        (c,) = added
        assert c.kind == "identity" and (c.left, c.right) == (target.l_max, target.l_min)
        assert after.resolve(hire_pred(after).args[0]) == target.group
        assert target.group.sort == GROUP

    def test_monotone(self):
        session, target = fixture_11()
        before = session.udrs
        after = pl_dis_collective(before, target)
        assert after.subord >= before.subord
        assert after.conds >= before.conds

    def test_single_reading_remains(self):
        session, target = fixture_11()
        after = pl_dis_collective(session.udrs, target)
        assert count_readings(after) == 1

    def test_reapplication_rejected(self):
        session, target = fixture_11()
        after = pl_dis_collective(session.udrs, target)
        names = display_names(after)
        message = f"{names[target.l_max]}/{names[target.l_min]} already classified"
        with pytest.raises(AlreadyDisambiguated, match=f"^{message}$"):
            pl_dis_collective(after, target)
        with pytest.raises(AlreadyDisambiguated):
            pl_dis_distributive(after, target)


class TestDistributive:
    def test_structure_16(self):
        session, target = fixture_11()
        before = session.udrs
        after = pl_dis_distributive(before, target)

        added_conds = after.conds - before.conds
        assert len(added_conds) == 3
        duplex = next(c for c in added_conds if isinstance(c, Quantifier))
        intro = next(c for c in added_conds if isinstance(c, ReferentIntro))
        member = next(c for c in added_conds if isinstance(c, Membership))
        assert duplex.rel == DISTRIBUTION
        assert duplex.label == target.l_max
        assert duplex.scope == target.l_min
        assert duplex.res == intro.label == member.label
        assert after.resolve(member.element) == intro.dref
        assert after.resolve(member.group) == target.group

        added_subord = after.subord - before.subord
        assert {c.kind for c in added_subord} == {"strict"}
        assert len(added_subord) == 2
        assert {(c.left, c.right) for c in added_subord} == {
            (target.l_max, duplex.res), (target.l_max, target.l_min)}

        assert after.resolve(hire_pred(after).args[0]) == intro.dref

    def test_two_readings(self):
        session, target = fixture_11()
        after = pl_dis_distributive(session.udrs, target)
        assert count_readings(after) == 2

    def test_activates_scope_ceiling(self):
        session, target = fixture_11()
        after = pl_dis_distributive(session.udrs, target)
        derived = closure(after.subord)
        assert len(derived.activated) == 1

    def test_reapplication_rejected(self):
        session, target = fixture_11()
        after = pl_dis_distributive(session.udrs, target)
        for fn in (pl_dis_collective, pl_dis_distributive):
            with pytest.raises(AlreadyDisambiguated):
                fn(after, target)


class TestErrors:
    def test_not_plural_for_indefinite_target(self):
        from udrs.plurals import PluralTarget
        session = analyze("John hired a secretary.")
        u = session.udrs
        sec = next(c for c in u.conds
                   if isinstance(c, Predicate) and c.rel == "secretary")
        names = display_names(u)
        with pytest.raises(NotPlural) as info:
            target_for(u, sec.label, sec.label)
        assert str(info.value) == f"no group referent introduced at {names[sec.label]}"

    def test_not_plural_when_no_weak_relation(self):
        from udrs.core import LS, fresh_label, make_udrs
        from udrs.core import fresh_referent
        from udrs.plurals import PluralTarget
        l1, l12 = fresh_label(), fresh_label()
        X = fresh_referent(GROUP)
        u = make_udrs(LS(l1, l12), [], [ReferentIntro(l1, X)])
        with pytest.raises(NotPlural):
            pl_dis_collective(u, PluralTarget(l1, l12, X))


class TestDecide:
    def test_gathered_subject_is_collective(self):
        # consult the rules mid-derivation: build the sentence, then re-ask
        session = analyze("The lawyers gathered.")
        # the directive already fired, so look at a fresh underspecified case
        session2, target = fixture_11()
        rules = session2.ctx.rules
        assert decide(session2.udrs, target, rules) == UNKNOWN  # "hire" carries no rule

    def test_default_unknown(self):
        session, target = fixture_11()
        assert decide(session.udrs, target, None) == UNKNOWN

    def test_override_wins(self):
        session, target = fixture_11()
        rules = KnowledgeRules().with_overrides({1: DISTRIBUTIVE})
        assert decide(session.udrs, target, rules, index=1) == DISTRIBUTIVE

    def test_subject_rule_matches_only_the_verbs_subject(self):
        rules = KnowledgeRules()
        rules.subject_rules["hire"] = COLLECTIVE
        session, target = fixture_11()
        assert decide(session.udrs, target, rules) == COLLECTIVE

    def test_rules_file_parsing(self, corpus_rules):
        rules = KnowledgeRules.from_file(corpus_rules)
        assert rules.continuation_rules["share"] == COLLECTIVE
        assert rules.subject_rules["gather"] == COLLECTIVE

    def test_bad_rules_file(self, tmp_path):
        from udrs import UDRSError
        bad = tmp_path / "bad.rules"
        bad.write_text("frobnicate everything\n")
        with pytest.raises(UDRSError):
            KnowledgeRules.from_file(str(bad))

    def test_rules_file_not_utf8(self, tmp_path):
        from udrs.core import EncodingError
        bad = tmp_path / "latin1.rules"
        bad.write_bytes(b"verb gather subject collective # caf\xe9\n")
        with pytest.raises(EncodingError, match="latin1.rules: not UTF-8"):
            KnowledgeRules.from_file(str(bad))


class TestDiscourseDisambiguation:
    def test_continuation_rule_yields_structure_15(self, corpus_rules):
        session = analyze(
            "The lawyers hired a secretary. They shared an office.",
            rules_path=corpus_rules)
        u = session.udrs
        hire = hire_pred(u)
        assert isinstance(u.resolve(hire.args[0]), DiscourseReferent)
        assert u.resolve(hire.args[0]).sort == GROUP
        assert session.ctx.registry.unresolved() == []
        assert count_readings(u) == 1

    def test_neutral_continuation_stays_underspecified(self):
        session = analyze("The lawyers hired a secretary. John left.")
        assert len(session.ctx.registry.unresolved()) == 1
        u = session.udrs
        assert isinstance(u.resolve(hire_pred(u).args[0]), PendingKey)
