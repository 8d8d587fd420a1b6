"""The indexed scope search against the plain backtracking reference.

``enumerate_scopings`` must return exactly the placements that
``oracle.reference_scopings`` returns, in the same order, since reading
order, ``udrs parse --readings`` output and the golden corpus follow it.
Inputs: the golden corpus, every `that`-chain of depth 2 and 3 over
{every, a, name}, every two-sentence quantified discourse with one or two
`every` per sentence, random constraint supersets of the corpus, and
hand-built UDRSs that mention a label outside every constraint.
Reading sets are also held to the brute-force oracle where it is fast
enough; test_readings.py does the same for the corpus.
"""

import itertools
import random
import time

import pytest

from conftest import (
    analyze, corpus_cases, each_verdict, random_superset, session_for_case,
)
from oracle import (
    oracle_readings, reference_build_drs, reference_check_binding,
    reference_scopings,
)
from udrs.core import (
    EVERY, LS, Predicate, Quantifier, ReferentIntro, conditional, fresh_label,
    fresh_referent, make_udrs, top_label, weak,
)
from udrs.readings import (
    InconsistentConstraints, canonical_form, enumerate_readings,
    enumerate_scopings,
)

NOUNS = ("lawyer", "clerk", "student", "philosopher", "secretary")
NAMES = ("john", "mary")


def noun_phrases(dets):
    """One NP per determiner: a fresh noun each, names alternating."""
    nps, nouns, names = [], iter(NOUNS), itertools.cycle(NAMES)
    for det in dets:
        nps.append(next(names) if det == "name" else f"{det} {next(nouns)}")
    return nps


def that_chain(dets) -> str:
    return " believed that ".join(noun_phrases(dets)).capitalize() + " left."


def quantified_pair(first, second) -> str:
    a, b, c, d = noun_phrases(first + second)
    return f"{a} hired {b}. ".capitalize() + f"{c} met {d}.".capitalize()


CHAINS = [that_chain(dets) for depth in (2, 3)
          for dets in itertools.product(("every", "a", "name"), repeat=depth)]

_ONE_EVERY = [("every", "a"), ("every", "name"), ("a", "every"), ("name", "every")]
DISCOURSES = [quantified_pair(first, second) for first, second in
              itertools.product(_ONE_EVERY, repeat=2)]
DISCOURSES += [quantified_pair(("every", "every"), other)
               for other in (("a", "a"), ("a", "name"), ("name", "a"))]

# The brute-force oracle takes 7-26 s on each two-sentence discourse and
# 10-40 s on a depth-3 chain with two `every`; under a second elsewhere.
ORACLE_CHAINS = [t for t in CHAINS if t.lower().count("every") <= 1
                 or t.count("believed") == 1]


def corpus_udrss():
    """Every corpus UDRS, plus both disambiguations of a pending plural."""
    out = []
    for case in corpus_cases():
        u = session_for_case(case).udrs
        if u.pending_slots():
            out.append((case.name, u))
        out += each_verdict(case)
    return out


def search_result(search, u):
    try:
        return search(u)
    except InconsistentConstraints:
        return InconsistentConstraints


def assert_same_search(u, what):
    mine = search_result(enumerate_scopings, u)
    assert mine == search_result(reference_scopings, u), what
    return mine


def reading_set(drss):
    return {canonical_form(d) for d in drss}


def test_corpus_scopings_match_reference():
    for name, u in corpus_udrss():
        assert_same_search(u, name)


@pytest.mark.parametrize("text", CHAINS)
def test_chain_scopings_match_reference(text):
    assert_same_search(analyze(text).udrs, text)


@pytest.mark.parametrize("text", ORACLE_CHAINS)
def test_chain_readings_match_oracle(text):
    u = analyze(text).udrs
    assert reading_set(enumerate_readings(u)) == reading_set(oracle_readings(u))


@pytest.mark.parametrize("text", DISCOURSES)
def test_discourse_scopings_match_reference(text):
    assert_same_search(analyze(text).udrs, text)


def test_random_supersets_match_reference():
    """Extra weak, strict, identity and conditional constraints, 300 trials."""
    rng = random.Random(1995)
    bases = [u for _, u in corpus_udrss()] + [analyze(t).udrs for t in CHAINS[:9]]
    outcomes = set()
    for trial in range(300):
        u = random_superset(bases[trial % len(bases)], rng, max_extra=4)
        mine = assert_same_search(u, f"trial {trial}")
        outcomes.add("inconsistent" if mine is InconsistentConstraints
                     else "empty" if not mine else "scoped")
    assert outcomes == {"inconsistent", "empty", "scoped"}


def loose_label_udrs(where: str):
    """top >= every(res r, scope s) >= v, where v uses the referent r
    introduces, plus a label that no constraint mentions: a condition's
    label, the LS's lower label, or a label only a conditional's antecedent
    names.  The loose label's uid comes before the constrained ones but
    top's, so each numbering of the label classes shows in the order of
    the scopings."""
    top, loose = top_label(), fresh_label()
    q, r, s, v, w = (fresh_label() for _ in range(5))
    x, y = fresh_referent(), fresh_referent()
    conds = [Quantifier(q, EVERY, r, s), ReferentIntro(r, x), Predicate(r, "lawyer", (x,)),
             Predicate(v, "leave", (x,)), ReferentIntro(w, y), Predicate(w, "clerk", (y,))]
    subord = [weak(top, q), weak(s, v), weak(top, w)]
    ls = LS(top, top)
    if where == "condition":
        conds.append(Predicate(loose, "met", (x, y)))
    elif where == "ls":
        ls = LS(top, loose)
    else:  # v >= w once top > loose
        subord.append(conditional(top, loose, v, w))
    return make_udrs(ls, subord, conds)


@pytest.mark.parametrize("where", ["condition", "ls", "antecedent"])
def test_label_outside_every_constraint_matches_reference(where):
    """A mentioned label that no constraint names is a class of its own,
    placed in uid order among the others."""
    u = loose_label_udrs(where)
    mine = enumerate_scopings(u)
    assert mine == [p for p in reference_scopings(u)
                    if not reference_check_binding(reference_build_drs(u, p))]
    assert len(mine) > 1


def test_every_depth_4_chain_is_fast():
    text = ("Every lawyer believed that every clerk believed that every student "
            "believed that every philosopher left.")
    u = analyze(text).udrs
    start = time.monotonic()
    readings = enumerate_readings(u)
    elapsed = time.monotonic() - start
    assert len(readings) == 1
    assert elapsed < 2.0, f"enumeration took {elapsed:.2f}s"


def test_three_quantified_sentences_search_is_fast():
    text = ("Every lawyer hired a secretary. A clerk hired every student. "
            "Every philosopher met an office.")
    u = analyze(text).udrs
    start = time.monotonic()
    scopings = enumerate_scopings(u)
    elapsed = time.monotonic() - start
    assert len(scopings) == 7280
    assert elapsed < 2.0, f"search took {elapsed:.2f}s"


def test_first_reading_comes_before_the_search_ends(monkeypatch):
    """The reading layer consumes scopings as the search finds them."""
    from udrs import readings, scoping
    built = []
    search = scoping._scopings

    def counting_scopings(*args):
        for at in search(*args):
            built.append(at)
            yield at

    monkeypatch.setattr(scoping, "_scopings", counting_scopings)
    u = analyze("Every lawyer hired a secretary. Every clerk met a student. "
                "Every philosopher hired an office.").udrs
    first = next(readings._licensed(u))
    assert len(built) <= 3, len(built)
    assert canonical_form(first) == canonical_form(readings._Table(u).build(built[0]))
    assert len(enumerate_scopings(u)) == 7280  # the full search, as a list
