import pytest

from conftest import (
    analyze, corpus_cases, quantified_pairs, that_chains, wide_discourses,
)
from udrs import (
    DISTRIBUTION, GROUP, DiscourseReferent, Membership, Predicate, Quantifier, ReferentIntro,
    closure, count_readings, from_json, identity, to_json_str,
)
from udrs import plurals
from udrs.plurals import (
    COLLECTIVE, DISTRIBUTIVE, UNKNOWN, AlreadyDisambiguated, KnowledgeRules,
    NotPlural, decide, pl_dis_collective, pl_dis_distributive,
)
from udrs.delay import PendingKey
from udrs.serialize import display_names


def fixture_11():
    """Session for the underspecified plural sentence, plus its plural's key."""
    session = analyze("The lawyers hired a secretary.")
    (key,) = session.ctx.registry.unresolved()
    return session, key


def group_at(u, label):
    return next(c.dref for c in u.conds
                if isinstance(c, ReferentIntro) and c.label == label)


def hire_pred(u):
    return next(c for c in u.conds if isinstance(c, Predicate) and c.rel == "hire")


class TestCollective:
    def test_structure_15(self):
        session, key = fixture_11()
        before = session.udrs
        after = pl_dis_collective(before, key)
        assert after.conds == before.conds
        assert after.subord > before.subord
        added = after.subord - before.subord
        assert len(added) == 1
        (c,) = added
        assert c.kind == "identity" and (c.left, c.right) == (key.np_l_max, key.np_l_min)
        group = group_at(before, key.np_l_max)
        assert after.resolve(hire_pred(after).args[0]) == group
        assert group.sort == GROUP

    def test_monotone(self):
        session, key = fixture_11()
        before = session.udrs
        after = pl_dis_collective(before, key)
        assert after.subord >= before.subord
        assert after.conds >= before.conds

    def test_single_reading_remains(self):
        session, key = fixture_11()
        after = pl_dis_collective(session.udrs, key)
        assert count_readings(after) == 1

    def test_reapplication_rejected(self):
        session, key = fixture_11()
        after = pl_dis_collective(session.udrs, key)
        names = display_names(after)
        message = f"{names[key.np_l_max]}/{names[key.np_l_min]} already classified"
        with pytest.raises(AlreadyDisambiguated, match=f"^{message}$"):
            pl_dis_collective(after, key)
        with pytest.raises(AlreadyDisambiguated):
            pl_dis_distributive(after, key)


class TestDistributive:
    def test_structure_16(self):
        session, key = fixture_11()
        before = session.udrs
        after = pl_dis_distributive(before, key)

        added_conds = after.conds - before.conds
        assert len(added_conds) == 3
        duplex = next(c for c in added_conds if isinstance(c, Quantifier))
        intro = next(c for c in added_conds if isinstance(c, ReferentIntro))
        member = next(c for c in added_conds if isinstance(c, Membership))
        assert duplex.rel == DISTRIBUTION
        assert duplex.label == key.np_l_max
        assert duplex.scope == key.np_l_min
        assert duplex.res == intro.label == member.label
        assert after.resolve(member.element) == intro.dref
        assert after.resolve(member.group) == group_at(before, key.np_l_max)

        added_subord = after.subord - before.subord
        assert {c.kind for c in added_subord} == {"strict"}
        assert len(added_subord) == 2
        assert {(c.left, c.right) for c in added_subord} == {
            (key.np_l_max, duplex.res), (key.np_l_max, key.np_l_min)}

        assert after.resolve(hire_pred(after).args[0]) == intro.dref

    def test_two_readings(self):
        session, key = fixture_11()
        after = pl_dis_distributive(session.udrs, key)
        assert count_readings(after) == 2

    def test_activates_scope_ceiling(self):
        session, key = fixture_11()
        after = pl_dis_distributive(session.udrs, key)
        derived = closure(after.subord)
        assert len(derived.activated) == 1

    def test_reapplication_rejected(self):
        session, key = fixture_11()
        after = pl_dis_distributive(session.udrs, key)
        for fn in (pl_dis_collective, pl_dis_distributive):
            with pytest.raises(AlreadyDisambiguated):
                fn(after, key)


class TestGroupReadOffTheUDRS:
    """The key names the plural; its group is always the referent the UDRS
    introduces at the key's maximal label, whatever UDRS the key comes with."""

    @staticmethod
    def constructed_and_round_tripped():
        session, key = fixture_11()
        yield session.udrs, key
        u = from_json(to_json_str(session.udrs))
        (key,) = u.pending_slots()
        yield u, key

    def test_collective_binds_the_key_to_the_group_at_l_max(self):
        for u, key in self.constructed_and_round_tripped():
            group = group_at(u, key.np_l_max)
            assert group.sort == GROUP
            after = pl_dis_collective(u, key)
            assert after.bindings[key] == group
            assert after.resolve(hire_pred(after).args[0]) == group

    def test_distributive_quantifies_over_the_group_at_l_max(self):
        for u, key in self.constructed_and_round_tripped():
            after = pl_dis_distributive(u, key)
            (member,) = (c for c in after.conds if isinstance(c, Membership))
            assert member.group == group_at(u, key.np_l_max)
            assert after.bindings[key] == member.element


class TestErrors:
    def test_not_plural_for_indefinite_target(self):
        session = analyze("John hired a secretary.")
        u = session.udrs
        sec = next(c for c in u.conds
                   if isinstance(c, Predicate) and c.rel == "secretary")
        names = display_names(u)
        with pytest.raises(NotPlural) as info:
            pl_dis_collective(u, PendingKey(sec.label, sec.label))
        assert str(info.value) == f"no group referent introduced at {names[sec.label]}"

    def test_not_plural_when_no_weak_relation(self):
        from udrs.core import LS, fresh_label, make_udrs
        from udrs.core import fresh_referent
        l1, l12 = fresh_label(), fresh_label()
        X = fresh_referent(GROUP)
        u = make_udrs(LS(l1, l12), [], [ReferentIntro(l1, X)])
        with pytest.raises(NotPlural):
            pl_dis_collective(u, PendingKey(l1, l12))


class TestDecide:
    def test_gathered_subject_is_collective(self):
        # the lexical directive fires when "gathered" links its subject
        session = analyze("The lawyers gathered.")
        u = session.udrs
        (key,) = session.ctx.registry.all_keys()
        group = group_at(u, key.np_l_max)
        assert group.sort == GROUP
        assert u.bindings[key] == group
        assert identity(*key) in u.subord
        assert u.pending_slots() == []

    def test_default_unknown(self):
        session, key = fixture_11()
        assert decide(session.udrs, key, KnowledgeRules()) == UNKNOWN

    def test_override_wins(self):
        session, key = fixture_11()
        rules = KnowledgeRules().with_overrides({1: DISTRIBUTIVE})
        assert decide(session.udrs, key, rules, index=1) == DISTRIBUTIVE

    def test_subject_rule_matches_only_the_verbs_subject(self):
        rules = KnowledgeRules()
        rules.subject_rules["hire"] = COLLECTIVE
        session, key = fixture_11()
        assert decide(session.udrs, key, rules) == COLLECTIVE

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


SEQUENCED = [
    "The lawyers shared a clerk. John left.",
    "The lawyers hired a clerk. John left. They shared an office.",
    "The students gathered. The lawyers hired a clerk.",
    "The lawyers hired a clerk. The students gathered. John met a student.",
    "John left. The lawyers hired a clerk. The students shared an office.",
    "The students shared an office. The lawyers hired a clerk. John left.",
]


def verdicts(text, overrides, how):
    """Each plural's reading (or None) after sequencing text with the golden
    rules and overrides, or the error's type and message.  how is "parse"
    (one derivation, whose first COORD joins two sentences), "session" (an
    empty discourse, then a sentence at a time) or "right" (the last two
    sentences sequenced first, then the rest joined on their left)."""
    from conftest import golden_path
    from udrs import Lexicon, UDRSError, parse, tokenize
    from udrs.principles import Derivation, combine_coord, interpret
    from udrs.cli import Session, sentence_roots
    rules = KnowledgeRules.from_file(golden_path("rules.txt")).with_overrides(overrides)
    (tree,) = parse(tokenize(text), Lexicon.default())
    try:
        if how == "parse":
            ctx = Derivation.new(Lexicon.default(), rules)
            u = interpret(tree, ctx).udrs
        elif how == "session":
            session = Session(rules=rules)
            for root in sentence_roots(tree):
                session.add(root)
            ctx, u = session.ctx, session.udrs
        else:
            ctx = Derivation.new(Lexicon.default(), rules)
            *first, second, last = [interpret(r, ctx) for r in sentence_roots(tree)]
            sign = combine_coord(second, last, ctx)
            for s in reversed(first):
                sign = combine_coord(s, sign, ctx)
            u = sign.udrs
    except UDRSError as e:
        return type(e).__name__, str(e)
    return [plurals._classified(u, k) if k in u.bindings else None
            for k in ctx.registry.all_keys()]


@pytest.mark.parametrize("how", ["parse", "session", "right"])
@pytest.mark.parametrize("text", SEQUENCED)
def test_sequencing_decides_as_trying_every_plural_does(monkeypatch, text, how):
    """Trying a plural of a sequenced discourse again only where another
    part adds a predicate that can decide it gives the verdicts, and the
    conflicts, of trying every plural at every sequencing, however the
    sentences are joined: the first sentence of a parse is not a discourse
    when it is sequenced, so its plurals are tried there.  The reference
    passes u as one part not tried yet."""
    cases = [{}, {1: DISTRIBUTIVE}, {1: COLLECTIVE}, {2: DISTRIBUTIVE}]
    narrowed = [verdicts(text, o, how) for o in cases]
    apply = plurals.apply_pending_decisions
    monkeypatch.setattr(plurals, "apply_pending_decisions",
                        lambda u, registry, rules, parts: apply(u, registry, rules, [(u, False)]))
    assert narrowed == [verdicts(text, o, how) for o in cases]


# Each family's inputs as (text, directives).
FAMILIES = {
    "corpus": lambda: [(case.input, case.disambiguate) for case in corpus_cases()],
    "that-chains": lambda: [(text, []) for text in that_chains()],
    "wide-discourses": lambda: [(text, [f"np{k}={v}" for k, v in directives])
                                for text, directives in wide_discourses()],
    "quantified-pairs": lambda: [(text, []) for text in quantified_pairs()],
}


@pytest.mark.parametrize("family", FAMILIES)
def test_a_sentence_links_only_its_own_plurals(family, corpus_rules):
    """Every predicate argument of a sentence's sign, resolved through that
    sentence's own bindings, is a referent or the key of a plural the
    sentence mentions.  plurals._waiting rests on this: no other part's
    subject-rule predicate resolves to a tried part's key, so only a
    continuation rule's rel can change a tried plural's verdict.  A feature
    that links a verb to an earlier sentence's plural, such as pronoun
    resolution, breaks it, and then _waiting must try those plurals again."""
    from udrs.cli import build_directed_session
    rules = KnowledgeRules.from_file(corpus_rules)
    pending = 0
    for text, specs in FAMILIES[family]():
        _, roots = build_directed_session(text, specs, rules=rules)
        for root in roots:
            u = root.sign.udrs
            for cond in u.conds:
                for arg in cond.args if isinstance(cond, Predicate) else ():
                    key = u.resolve(arg)
                    if isinstance(key, PendingKey):
                        pending += 1
                        assert key.np_l_max in u.labels(), text
    assert (pending > 0) == (family in ("corpus", "wide-discourses"))
