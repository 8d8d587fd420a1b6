import random

import pytest

from conftest import (
    analyze, corpus_cases, each_verdict, random_superset, relations,
    session_for_case,
)
from oracle import oracle_count, oracle_readings, reference_scoping
from udrs import (
    LS, SubordConstraint, closure, fresh_label, make_udrs, strict, weak,
)
from udrs.core import Quantifier, UDRSError, fresh_referent
from udrs.plurals import COLLECTIVE, DISTRIBUTIVE
from udrs.readings import (
    DRS, DuplexCondition, InconsistentConstraints, UnresolvedSlot,
    build_drs, canonical_form, check_binding, count_readings, drs_to_json,
    enumerate_readings, enumerate_scopings, render_drs,
)


def readings_set(u):
    return {canonical_form(d) for d in enumerate_readings(u)}


class TestCounts:
    @pytest.mark.parametrize("text,expected", [
        ("Every lawyer hired a secretary.", 2),
        ("Every lawyer believed that every clerk left.", 1),
        ("Every lawyer believed that a clerk left.", 2),
        ("John hired a secretary.", 1),
        ("John left.", 1),
        ("Every lawyer met every student.", 2),
        ("The lawyers gathered.", 1),
    ])
    def test_sentence_counts(self, text, expected):
        assert count_readings(analyze(text).udrs) == expected

    def test_collective_fixture_has_one_reading(self):
        session = analyze("The lawyers hired a secretary.",
                          disambiguate=((1, COLLECTIVE),))
        assert count_readings(session.udrs) == 1

    def test_distributive_fixture_has_two_readings(self):
        session = analyze("The lawyers hired a secretary.",
                          disambiguate=((1, DISTRIBUTIVE),))
        assert count_readings(session.udrs) == 2


class TestPendingSlots:
    def test_rejected_by_default(self):
        session = analyze("The lawyers hired a secretary.")
        with pytest.raises(UnresolvedSlot):
            enumerate_readings(session.udrs)


class TestSoundness:
    def test_scopings_satisfy_derived_relations(self):
        for text in ("Every lawyer hired a secretary.",
                     "Every lawyer believed that a clerk left.",
                     "Every lawyer met every student."):
            u = analyze(text).udrs
            derived = closure(u.subord)
            scopings = enumerate_scopings(u)
            assert scopings
            for placement in scopings:
                scoping = reference_scoping(u, placement)
                for kind, a, b in relations(derived):
                    if a == b:
                        continue
                    assert scoping.satisfies(SubordConstraint(kind, a, b)), (
                        f"{text}: {kind} {a} {b}")
                for c in u.subord:
                    assert scoping.satisfies(c)

    def test_verb_sits_below_every_argument(self):
        # closed-formula consequence: the verb lies below each argument's
        # introduction box, or below the scope box when the argument is
        # introduced in a quantifier's restrictor
        u = analyze("Every lawyer hired a secretary.").udrs
        from udrs.core import Predicate, Quantifier, ReferentIntro
        hire = next(c for c in u.conds if isinstance(c, Predicate) and c.rel == "hire")
        intros = {c.dref: c.label for c in u.conds if isinstance(c, ReferentIntro)}
        res_to_scope = {("res", q.label.uid): ("scope", q.label.uid)
                        for q in u.conds if isinstance(q, Quantifier)}
        for placement in enumerate_scopings(u):
            scoping = reference_scoping(u, placement)
            verb_pos = scoping.position(hire.label)
            for arg in hire.args:
                intro_pos = scoping.position(intros[u.resolve(arg)])
                bound = res_to_scope.get(intro_pos, intro_pos)
                assert scoping.inside_or_equal(verb_pos, bound)


class TestBuildDrs:
    """A placement that leaves a condition out of its box tree raises
    UDRSError naming a label; the first builder dropped the condition, or
    raised a bare KeyError."""

    def setup_method(self):
        self.u = analyze("Every lawyer hired a secretary.").udrs
        self.every = next(c for c in self.u.conds if isinstance(c, Quantifier))
        self.placement = enumerate_scopings(self.u)[0]

    def test_duplex_inside_its_own_box(self):
        placement = dict(self.placement)
        placement[self.every.label] = ("res", self.every.label.uid)
        with pytest.raises(UDRSError, match=rf"{self.every.label} inside one of its own boxes"):
            build_drs(self.u, placement)

    def test_duplexes_inside_each_other(self):
        u = analyze("Every lawyer met every student.").udrs
        first, second = sorted((c for c in u.conds if isinstance(c, Quantifier)),
                               key=lambda q: q.label.uid)
        placement = dict(enumerate_scopings(u)[0])
        placement[first.label] = ("scope", second.label.uid)
        placement[second.label] = ("res", first.label.uid)
        with pytest.raises(UDRSError, match="inside one of its own boxes"):
            build_drs(u, placement)

    def test_box_no_duplex_has(self):
        placement = dict(self.placement)
        placement[self.every.res] = ("res", 0)
        with pytest.raises(UDRSError, match=rf"{self.every.res} in \('res', 0\)"):
            build_drs(self.u, placement)

    def test_label_without_a_box(self):
        placement = dict(self.placement)
        del placement[self.every.label]
        with pytest.raises(UDRSError, match=rf"{self.every.label} in no box") as e:
            build_drs(self.u, placement)
        assert not isinstance(e.value, KeyError)

    def test_two_duplexes_of_one_label(self):
        """A document may give two duplexes one label.  The table merges
        their boxes, so a scoping that puts conditions in either is refused
        with the same UDRSError, not built short of them."""
        res, scope = fresh_label(), fresh_label()
        top = self.u.ls.l_max
        u = make_udrs(self.u.ls, self.u.subord | {weak(top, res), weak(top, scope)},
                      self.u.conds | {Quantifier(self.every.label, "every", res, scope)},
                      self.u.bindings)
        assert enumerate_scopings(u)
        with pytest.raises(UDRSError, match="leaves conditions out of the box tree"):
            enumerate_readings(u)


class TestOracleAgreement:
    def test_oracle_matches_on_corpus(self):
        for case in corpus_cases():
            session = session_for_case(case)
            u = session.udrs
            if u.pending_slots():
                continue  # handled branch-wise in the acceptance suite
            assert count_readings(u) == oracle_count(u), case.name
            assert readings_set(u) == {canonical_form(d)
                                       for d in oracle_readings(u)}, case.name

    def test_oracle_matches_on_disambiguated_plural(self):
        for verdict in (COLLECTIVE, DISTRIBUTIVE):
            u = analyze("The lawyers hired a secretary.",
                        disambiguate=((1, verdict),)).udrs
            assert readings_set(u) == {canonical_form(d) for d in oracle_readings(u)}


class TestRefinement:
    def test_adding_constraints_never_adds_readings(self):
        rng = random.Random(2024)
        bases = [
            analyze("Every lawyer hired a secretary.").udrs,
            analyze("Every lawyer believed that a clerk left.").udrs,
            analyze("The lawyers hired a secretary.",
                    disambiguate=((1, DISTRIBUTIVE),)).udrs,
        ]
        for u in bases:
            base_readings = readings_set(u)
            for _ in range(10):
                stronger = random_superset(u, rng)
                try:
                    refined = readings_set(stronger)
                except InconsistentConstraints:
                    refined = set()
                assert refined <= base_readings


class TestBinding:
    def test_corpus_readings_are_bound(self):
        for case in corpus_cases():
            for name, u in each_verdict(case):
                for drs in enumerate_readings(u):
                    assert check_binding(drs) == [], name

    def test_sibling_declaration_is_a_violation(self):
        x, y = fresh_referent(), fresh_referent()
        res = DRS(frozenset([x]), frozenset(), frozenset(), frozenset())
        scope = DRS(frozenset(), frozenset([("hire", (x, y))]),
                    frozenset(), frozenset())
        top = DRS(frozenset(), frozenset(),
                  frozenset(), frozenset([DuplexCondition("every", res, scope)]))
        violations = check_binding(top)
        assert any("hire" in v for v in violations)  # y is declared nowhere

    def test_restrictor_is_accessible_from_scope(self):
        x = fresh_referent()
        res = DRS(frozenset([x]), frozenset(), frozenset(), frozenset())
        scope = DRS(frozenset(), frozenset([("leave", (x,))]),
                    frozenset(), frozenset())
        top = DRS(frozenset(), frozenset(),
                  frozenset(), frozenset([DuplexCondition("every", res, scope)]))
        assert check_binding(top) == []

    def test_empty_drs_ok(self):
        empty = DRS(frozenset(), frozenset(), frozenset(), frozenset())
        assert check_binding(empty) == []


class TestErrorsAndEdges:
    def test_inconsistent_constraints(self):
        a, b = fresh_label(), fresh_label()
        u = make_udrs(LS(a, b), [strict(a, b), strict(b, a)])
        with pytest.raises(InconsistentConstraints):
            enumerate_scopings(u)

    def test_reading_identity_ignores_referent_names(self):
        u1 = analyze("Every lawyer hired a secretary.").udrs
        u2 = analyze("Every lawyer hired a secretary.").udrs
        assert readings_set(u1) == readings_set(u2)


class TestRendering:
    def test_render_contains_conditions(self):
        (drs,) = enumerate_readings(analyze("John hired a secretary.").udrs)
        text = render_drs(drs)
        assert "hire(" in text
        assert "john(" in text
        assert text.count("+") >= 4  # box corners

    def test_duplex_rendering(self):
        session = analyze("Every lawyer left.")
        (drs,) = enumerate_readings(session.udrs)
        text = render_drs(drs)
        assert "=every=>" in text

    def test_json_shape(self):
        (drs,) = enumerate_readings(analyze("Every lawyer left.").udrs)
        doc = drs_to_json(drs)
        assert set(doc) == {"referents", "conditions"}
        duplex = next(c for c in doc["conditions"] if c["type"] == "duplex")
        assert duplex["rel"] == "every"
        assert duplex["res"]["referents"] == ["x0"]

    def test_distribution_duplex_renders_membership(self):
        session = analyze("The lawyers hired a secretary.",
                          disambiguate=((1, DISTRIBUTIVE),))
        texts = [render_drs(d) for d in enumerate_readings(session.udrs)]
        assert all("=dist=>" in t for t in texts)
        assert all(" in X" in t for t in texts)

    @pytest.mark.parametrize("short_side", ["res", "scope"])
    def test_join_duplex_leaves_its_arguments_alone(self, short_side):
        """Joining two boxes pads the shorter one in a new list, so the
        caller's lines come back unchanged."""
        from udrs.readings import _join_duplex
        short, tall = ["+--+", "|  |", "+--+"], ["+---+", "| a |", "+---+", "| b |", "+---+"]
        res, scope = (short, tall) if short_side == "res" else (tall, short)
        before = (list(res), list(scope))
        lines = _join_duplex(res, "=every=>", scope)
        assert (res, scope) == before
        assert len(lines) == 5 and len(set(map(len, lines))) == 1
        assert [i for i, line in enumerate(lines) if "=every=>" in line] == [2]
