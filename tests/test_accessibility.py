"""Accessibility is a check of the scope search, not a filter on readings.

A referent used at label u and introduced at label i is bound when pos(i)
is pos(u) or a box above it, or the res box of a duplex whose scope box is
pos(u) or above it (Kamp & Reyle, *From Discourse to Logic*, 1993).  The
search compiles that per use and drops the checks its closure implies, so
``enumerate_scopings`` yields only bound placements and the reading layer
never calls ``check_binding``.  The checks here: hand-built UDRSs whose
check the closure cannot discharge, a referent introduced nowhere, and the
corpus and generated families, whose readings all pass the verbatim first
binding check ``oracle.reference_check_binding``.
"""

import pytest

from conftest import (
    analyze, corpus_cases, each_verdict, quantified_pairs, that_chains,
    wide_discourses,
)
from oracle import (
    oracle_readings, reference_build_drs, reference_check_binding,
    reference_scopings,
)
from udrs import readings, scoping
from udrs.core import (
    EVERY, LS, Predicate, Quantifier, ReferentIntro, fresh_label,
    fresh_referent, make_udrs, strict, top_label, weak,
)
from udrs.readings import (
    canonical_form, enumerate_readings, enumerate_scopings,
)


def free_intro_and_use(intro: bool = True):
    """top >= every(res r, scope s); a referent introduced at a free label i
    and used at a free label v, both anywhere under top: no constraint
    relates i to v, so the closure implies no accessibility check."""
    top, q, r, s, i, v = top_label(), *(fresh_label() for _ in range(5))
    x = fresh_referent()
    conds = [Quantifier(q, EVERY, r, s), Predicate(v, "leave", (x,))]
    if intro:
        conds.append(ReferentIntro(i, x))
    subord = [weak(top, q), strict(q, r), strict(q, s), weak(top, i), weak(top, v)]
    return make_udrs(LS(top, top), subord, conds)


def bound(u, placement) -> bool:
    return not reference_check_binding(reference_build_drs(u, placement))


def forms(drss) -> set:
    return {canonical_form(d) for d in drss}


def test_search_omits_each_inaccessible_placement():
    u = free_intro_and_use()
    every = reference_scopings(u)
    mine = enumerate_scopings(u)
    assert mine == [p for p in every if bound(u, p)]
    assert len(mine) < len(every)  # the compiled check rejected placements


def test_res_box_binds_its_scope_box_only():
    u = free_intro_and_use()
    q = next(c for c in u.conds if isinstance(c, Quantifier))
    i = next(c.label for c in u.conds if isinstance(c, ReferentIntro))
    v = next(c.label for c in u.conds if isinstance(c, Predicate))
    res, scope = ("res", q.label.uid), ("scope", q.label.uid)
    places = {(p[i], p[v]) for p in enumerate_scopings(u)}
    assert (res, scope) in places
    assert (scope, res) not in places
    assert (res, ("top",)) not in places


def test_readings_equal_the_oracle():
    u = free_intro_and_use()
    assert forms(enumerate_readings(u)) == forms(oracle_readings(u))


def test_referent_introduced_nowhere_has_no_readings():
    u = free_intro_and_use(intro=False)
    assert reference_scopings(u)  # the constraints alone allow placements
    assert enumerate_scopings(u) == []
    assert enumerate_readings(u) == []
    assert oracle_readings(u) == []


def generated_udrss():
    for case in corpus_cases():
        for name, u in each_verdict(case):
            yield name, u
    for text in that_chains() + quantified_pairs():
        yield text, analyze(text).udrs
    for text, directives in wide_discourses():
        yield text, analyze(text, disambiguate=directives).udrs


def test_reading_layer_never_calls_check_binding(monkeypatch):
    def refuse(d):
        raise AssertionError("check_binding called on the reading path")

    monkeypatch.setattr(readings, "check_binding", refuse)
    checked = 0
    for name, u in generated_udrss():
        for d in enumerate_readings(u):
            assert reference_check_binding(d) == [], name
            checked += 1
    assert checked > 1000


@pytest.mark.parametrize("text", ["Every lawyer hired a secretary.",
                                  "Every lawyer believed that a clerk left."])
def test_constructed_checks_are_all_implied(text, monkeypatch):
    """Every use in a parsed input is bound in every placement the closure
    allows, so the search keeps no accessibility check for it."""
    kept = []
    compile_checks = scoping._access_checks
    monkeypatch.setattr(scoping, "_access_checks",
                        lambda *args: kept.extend(compile_checks(*args)) or [])
    enumerate_scopings(analyze(text).udrs)
    assert kept == []
