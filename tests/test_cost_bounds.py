"""Cost guards the benchmark cannot see.

The benchmark's inputs are short and shallow, so a search that does far
more work than it needs on long or deep inputs still reads level there.
These tests count the steps of two searches by monkeypatching, not by wall
time: labelling a discourse that repeats one structure, or alternates or
cycles through a few, grows linearly with its length, a reading that
cannot tie, or that colour refinement leaves without a tie, is labelled
without a search step, a `that`-chain's constraint set is closed once
from parse to readings, and the scope search runs a bounded number of
checks per scoping it finds.
"""

import itertools

import pytest

import udrs.canonical as canonical
import udrs.core as core
import udrs.readings as readings
from conftest import NOUNS, analyze, quantified_pairs
from udrs.cli import build_session
from udrs.readings import build_drs, enumerate_readings, enumerate_scopings


def counted(monkeypatch, module, name: str) -> list[int]:
    """Count the calls of module.name from here on, in the list's one item."""
    calls = [0]
    f = getattr(module, name)

    def counting(*args):
        calls[0] += 1
        return f(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


ALTERNATING = "John hired a lawyer. John hired a student."
CYCLE = "John hired a lawyer. Mary met a clerk. John hired a student. Mary met a secretary."


@pytest.mark.parametrize("sentences,times", [
    ("John hired a lawyer. Mary met a clerk.", (5, 10, 20)),
    ("A lawyer met a clerk.", (2, 4, 8, 16)),
    (ALTERNATING, (1, 2, 4, 8)),
    (CYCLE, (1, 2, 4, 8)),
], ids=("two-sentence repeat", "one-sentence repeat", "alternating", "four-sentence cycle"))
def test_labelling_grows_linearly_with_repeats(monkeypatch, sentences, times):
    """Each doubling of the discourse at most multiplies the labelling's
    steps, the walk's and the search's together, by 2.5; quadratic growth
    would multiply them by 4.  A walk step is a token the search would
    emit: an item numbered, and per box walked its universe and the ends of
    its three lists.  Each doubling is checked as soon as it is counted, so
    a search that grows exponentially fails before the next length runs for
    hours."""
    items = counted(monkeypatch, canonical, "_numbered")
    boxes = counted(monkeypatch, canonical, "_walk")
    search_steps = counted(monkeypatch, canonical, "_next")
    counts = []
    for k in times:
        u = analyze(" ".join([sentences] * k)).udrs
        items[0] = boxes[0] = search_steps[0] = 0
        assert len(enumerate_readings(u)) == 1
        counts.append(items[0] + 4 * boxes[0] + search_steps[0])
        assert counts[-1], counts  # a count that missed a path would make the bound vacuous
        assert len(counts) == 1 or counts[-1] <= 2.5 * counts[-2], counts


@pytest.mark.parametrize("text", ["Every lawyer hired a secretary."] + quantified_pairs())
def test_forced_readings_take_no_search_step(monkeypatch, text):
    """A reading none of whose boxes holds two items of one rel is labelled
    by the walk alone: the search's step function never runs for it."""
    steps = counted(monkeypatch, canonical, "_next")
    u = analyze(text).udrs
    forced = 0
    for placement in enumerate_scopings(u):
        d = build_drs(u, placement)
        if d._compiled[1].forced:
            forced += 1
            steps[0] = 0
            assert d.labelling
            assert steps[0] == 0
    assert forced


def that_chain(depth: int) -> str:
    """A `that`-embedding of the given depth, subjects every/a alternating."""
    nouns = itertools.cycle(NOUNS)
    nps = [f"{('every', 'a')[i % 2]} {next(nouns)}" for i in range(depth)]
    return (" believed that ".join(nps) + " left.").capitalize()


@pytest.mark.parametrize("depth", range(2, 13))
def test_a_that_chain_is_closed_once(monkeypatch, depth):
    """Building the session checks the sentence's constraint set, and the
    scope search closes that same set: the closure built for the check is
    the one the search reads."""
    builds = counted(monkeypatch, core, "Closure")
    session, _ = build_session(that_chain(depth))
    assert enumerate_readings(session.udrs)
    assert builds[0] == 1


@pytest.mark.parametrize("text", [
    "John believed that Mary believed that a lawyer left.",
    "Every lawyer believed that a clerk believed that John left.",
])
def test_readings_refinement_unties_take_no_search_step(monkeypatch, text):
    """Two believe predicates in one box can tie, but colour refinement
    tells their believers apart, so every reading is walked and the
    search's step function never runs."""
    steps = counted(monkeypatch, canonical, "_next")
    u = analyze(text).udrs
    unforced = 0
    for placement in enumerate_scopings(u):
        d = build_drs(u, placement)
        unforced += not d._compiled[1].forced
        assert d.labelling
    assert unforced
    assert steps[0] == 0


@pytest.mark.parametrize("depth", range(2, 13))
def test_scope_search_checks_are_bounded_per_scoping(monkeypatch, depth):
    """At most 3 check runs per scoping found, plus 10: the positions the
    closure allows each label class keep the search from trying placements
    that fail.  Trying every box for every class makes over a hundred runs
    per scoping at depth 9."""
    u = analyze(that_chain(depth)).udrs
    calls = counted(monkeypatch, readings, "_all_hold")
    n = len(enumerate_scopings(u))
    assert calls[0] <= 3 * n + 10, (calls[0], n)
