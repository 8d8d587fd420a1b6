"""Cost guards the benchmark cannot see.

The benchmark's inputs are short and shallow, so a search that does far
more work than it needs on long or deep inputs still reads level there.
These tests count the steps of two searches by monkeypatching, not by wall
time: labelling a discourse that repeats one structure, or alternates or
cycles through a few, grows linearly with its length, a reading that
cannot tie is labelled without a search step, and the scope search runs a
bounded number of checks per scoping it finds.
"""

import itertools

import pytest

import udrs.canonical as canonical
import udrs.readings as readings
from conftest import NOUNS, analyze, quantified_pairs
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
    """Each doubling of the discourse at most multiplies the labelling
    search's steps by 2.5; quadratic growth would multiply them by 4.  Each
    doubling is checked as soon as it is counted, so a search that grows
    exponentially fails before the next length runs for hours."""
    steps = counted(monkeypatch, canonical, "_next")
    counts = []
    for k in times:
        u = analyze(" ".join([sentences] * k)).udrs
        steps[0] = 0
        assert len(enumerate_readings(u)) == 1
        counts.append(steps[0])
        assert counts[-1], counts  # these trees tie: a walk would make the bound vacuous
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
def test_scope_search_checks_are_bounded_per_scoping(monkeypatch, depth):
    """At most 3 check runs per scoping found, plus 10: the positions the
    closure allows each label class keep the search from trying placements
    that fail.  Trying every box for every class makes over a hundred runs
    per scoping at depth 9."""
    u = analyze(that_chain(depth)).udrs
    calls = counted(monkeypatch, readings, "_all_hold")
    n = len(enumerate_scopings(u))
    assert calls[0] <= 3 * n + 10, (calls[0], n)
