"""The per-UDRS reading table against the first DRS builder.

The reading layer compiles a UDRS once (``readings._Table``) and builds
every scoping's DRS from it as its box over referent indices, which its
labelling reads and which grounds the DRS's fields when they are first
read.  The search's positions for the table's labels must be the
placement ``enumerate_scopings`` gives, each DRS must equal what
``oracle.reference_build_drs`` builds from that placement, and each
labelling must give the same canonical form, ``render_drs`` text and
``drs_to_json`` as the labelling of a fresh copy of the DRS, made by hand,
which compiles that copy on its own.  One table serves all the scopings of
its UDRS, as in ``enumerate_readings``.  Inputs: the golden corpus (both
verdicts of a pending plural), the generated families of ``conftest``,
``SYMMETRIC`` and ``P_FAMILY``, the benchmark catalogues of the three
reading workloads filled with seeds 7 and 8, and the first 500 scopings of
three quantified sentences.
"""

import sys
from pathlib import Path

import pytest

from conftest import (
    analyze, corpus_cases, each_verdict, quantified_pairs, that_chains,
    wide_discourses,
)
from oracle import reference_build_drs
from test_canonical import P_FAMILY, SYMMETRIC
from udrs import (
    EVERY, GROUP, LS, Membership, Predicate, Quantifier, ReferentIntro,
    fresh_label, fresh_referent, make_udrs, strict, top_label,
)
from udrs.readings import (
    DRS, _Table, canonical_form, drs_to_json, enumerate_scopings, render_drs,
)
from udrs.scoping import _scopings

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import CATALOGUES, generate, read_vocabulary  # noqa: E402

Q_3 = ("Every lawyer hired a secretary. Every clerk met a student. "
       "Every philosopher hired an office.")


def check_placement(table: _Table, u, placement) -> None:
    """The table's DRS of a placement, given as each group's position."""
    d = table.build([table.where[placement[label]] for label in table.labels])
    assert d == reference_build_drs(u, placement)
    fresh = DRS(*d)
    shape, _ = fresh.labelling
    assert canonical_form(d) == shape
    assert render_drs(d) == render_drs(fresh)
    assert drs_to_json(d) == drs_to_json(fresh)


def check_table(u, limit=None) -> int:
    """Hold the table's DRS and seeded labelling of each scoping (the first
    limit ones) to the references; the number of scopings checked."""
    table = _Table(u)
    scopings = enumerate_scopings(u)[:limit]
    positions = range(2 * len(table.duplexes) + 1)
    for placement, at in zip(scopings, _scopings(u, table.duplexes, table.labels, positions)):
        assert at == [table.where[placement[label]] for label in table.labels]
        check_placement(table, u, placement)
    return len(scopings)


@pytest.mark.parametrize("case", corpus_cases(), ids=lambda c: c.name)
def test_corpus(case):
    for name, u in each_verdict(case):
        check_table(u)


@pytest.mark.parametrize("family", [that_chains, wide_discourses, quantified_pairs])
def test_generated_families(family):
    for item in family():
        text, directives = item if isinstance(item, tuple) else (item, ())
        check_table(analyze(text, disambiguate=directives).udrs)


def test_symmetric_and_plural_families():
    inputs = [(text, dirs) for text, dirs, _ in SYMMETRIC] + P_FAMILY
    for text, directives in inputs:
        assert check_table(analyze(text, disambiguate=directives).udrs)


@pytest.mark.parametrize("seed", [7, 8])
@pytest.mark.parametrize("workload", ["deep-scope", "wide-discourse", "many-readings"])
def test_benchmark_catalogues(workload, seed):
    for inp in generate(CATALOGUES[workload](), seed, read_vocabulary()):
        assert check_table(analyze(inp.text, disambiguate=inp.shape.directives).udrs)


def test_three_quantified_sentences():
    assert check_table(analyze(Q_3).udrs, limit=500) == 500


def test_repeated_conditions_merge_as_the_sets_do():
    """Two labels with the same conditions, placed in one box, and two
    duplexes with equal boxes: a DRS's sets keep one of each, and so must
    its boxes over indices.  Construction makes no such UDRS."""
    top, a, b, q1, r1, s1, q2, r2, s2 = top_label(), *(fresh_label() for _ in range(8))
    x, g = fresh_referent(), fresh_referent(GROUP)
    conds = [cond for label in (a, b) for cond in (
        ReferentIntro(label, x), Predicate(label, "p", (x, g)), Membership(label, x, g))]
    conds += [ReferentIntro(a, g), Quantifier(q1, EVERY, r1, s1), Quantifier(q2, EVERY, r2, s2),
              Predicate(r1, "q", (x,)), Predicate(r2, "q", (x,))]
    u = make_udrs(LS(top, a), [strict(top, l) for l in (a, b, q1, q2)], conds)
    placement = {top: ("top",), a: ("top",), b: ("top",), q1: ("top",), q2: ("top",)}
    for q, r, s in ((q1, r1, s1), (q2, r2, s2)):
        placement.update({r: ("res", q.uid), s: ("scope", q.uid)})
    check_placement(_Table(u), u, placement)
    (dup,) = reference_build_drs(u, placement).duplexes
    assert dup.res.predicates == {("q", (x,))}
