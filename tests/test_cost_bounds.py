"""Cost guards the benchmark cannot see.

The benchmark's inputs are short and shallow, so a search that does far
more work than it needs on long or deep inputs still reads level there.
These tests count the steps of two searches by monkeypatching, not by wall
time: labelling a discourse that repeats one structure, or alternates or
cycles through a few, grows linearly with its length, a reading that
cannot tie, or that colour refinement leaves without a tie, is labelled
without a search step, a `that`-chain's constraint set is closed once
from parse to readings, the scope search runs a bounded number of
checks per scoping it finds, no reading grounds its fields to be listed,
checked or printed, and sequencing with a rules file tries each plural a
bounded number of times.

The cycle guards hold the public paths to freeing what they make by
reference counting alone: a reference cycle waits for the cycle
collector, whose passes then land inside whatever runs next.
"""

import contextlib
import gc
import io
import itertools
import sys
from pathlib import Path

import pytest

import udrs.canonical as canonical
import udrs.core as core
import udrs.plurals as plurals
import udrs.readings as readings
import udrs.scoping as scoping
from conftest import (
    NOUNS, analyze, corpus_cases, each_verdict, golden_path, quantified_pairs,
    that_chains, wide_discourses,
)
from udrs import (
    GROUP, Lexicon, ParseFailure, UDRSError, UnknownWord, fresh_referent,
)
from udrs.cli import build_session, run
from udrs.readings import (
    DRS, DuplexCondition, UnresolvedSlot, build_drs, canonical_form,
    check_binding, drs_to_json, enumerate_readings, enumerate_scopings,
    render_drs,
)
from udrs.serialize import from_json, to_json_str

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import CATALOGUES, generate, read_vocabulary  # noqa: E402


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
    its three lists.  A tree that colour refinement leaves discrete is
    neither walked nor searched but read off in one pass, counted as the
    walk it replaces.  Each doubling is checked as soon as it is counted,
    so a search that grows exponentially fails before the next length runs
    for hours."""
    items = counted(monkeypatch, canonical, "_numbered")
    boxes = counted(monkeypatch, canonical, "_walk")
    search_steps = counted(monkeypatch, canonical, "_next")
    shaped = [0]
    label_boxes = canonical.label_boxes

    def labelling(refs, top, lo):
        before = items[0] + boxes[0] + search_steps[0]
        got = label_boxes(refs, top, lo)
        if items[0] + boxes[0] + search_steps[0] == before:  # read off, not walked
            shaped[0] += walk_steps(top)
        return got

    monkeypatch.setattr(canonical, "label_boxes", labelling)
    counts = []
    for k in times:
        u = analyze(" ".join([sentences] * k)).udrs
        items[0] = boxes[0] = search_steps[0] = shaped[0] = 0
        assert len(enumerate_readings(u)) == 1
        counts.append(items[0] + 4 * boxes[0] + search_steps[0] + shaped[0])
        assert counts[-1], counts  # a count that missed a path would make the bound vacuous
        assert len(counts) == 1 or counts[-1] <= 2.5 * counts[-2], counts


def walk_steps(box) -> int:
    """The steps a walk of the box takes: one per predicate and membership,
    four per box."""
    _, preds, mems, dups = box.lists
    return len(preds) + len(mems) + 4 + sum(walk_steps(res) + walk_steps(scope)
                                            for _, res, scope in dups)


@pytest.mark.parametrize("text", ["Every lawyer hired a secretary."] + quantified_pairs())
def test_forced_readings_take_no_search_step(monkeypatch, text):
    """A reading none of whose boxes holds two items of one rel is labelled
    by the walk alone: the search's step function never runs for it."""
    steps = counted(monkeypatch, canonical, "_next")
    u = analyze(text).udrs
    forced = 0
    for placement in enumerate_scopings(u):
        d = build_drs(u, placement)
        if d._box.forced:
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
    tells their believers apart, so every reading is numbered by its
    refined partition and the search's step function never runs."""
    steps = counted(monkeypatch, canonical, "_next")
    u = analyze(text).udrs
    unforced = 0
    for placement in enumerate_scopings(u):
        d = build_drs(u, placement)
        unforced += not d._box.forced
        assert d.labelling
    assert unforced
    assert steps[0] == 0


def test_readings_stay_unground_until_asked():
    """A built reading is its box over referent indices: enumerating,
    dedup, check_binding, render_drs and drs_to_json over the many-readings
    catalogue at seed 7 read only that box, so no reading derives its
    ground fields (and so no DRS inside one is made).  Reading a field
    derives them, and those of the DRSs inside, which the duplex set
    hashes."""
    built = []
    for inp in generate(CATALOGUES["many-readings"](), 7, read_vocabulary()):
        for d in enumerate_readings(analyze(inp.text, disambiguate=inp.shape.directives).udrs):
            assert check_binding(d) == [] and render_drs(d) and drs_to_json(d)
            built.append(d)
    assert len(built) > 1000
    assert sum(d._fields is not None for d in built) == 0
    d = built[-1]
    assert d.duplexes and d._fields is not None
    assert all(x.res._fields and x.scope._fields for x in d.duplexes)


@pytest.mark.parametrize("pair", [
    "The lawyers hired a clerk. John met a student.",
    "The lawyers hired a clerk. The students gathered.",  # a subject rule's verb
])
def test_sequencing_with_rules_tries_each_plural_a_bounded_number_of_times(monkeypatch, pair):
    """With a rules file, a pending plural is tried again only when a new
    sentence adds a predicate that can decide it, so the calls of
    plurals.decide grow linearly with the discourse, not quadratically; a
    sentence that adds a continuation rule's rel still decides every
    plural waiting before it."""
    decided = counted(monkeypatch, plurals, "decide")
    counts = []
    for times in (5, 10, 20, 40):
        decided[0] = 0
        analyze(" ".join([pair] * times), golden_path("rules.txt"))
        counts.append(decided[0])
        assert counts[-1], counts
        assert len(counts) == 1 or counts[-1] <= 2.5 * counts[-2], counts
    session = analyze(" ".join([pair] * 3) + " They shared an office.", golden_path("rules.txt"))
    u, keys = session.udrs, session.ctx.registry.all_keys()
    assert len(keys) == 3 * pair.count("The ") and not session.ctx.registry.unresolved()
    assert all(u.bindings[k] == plurals._group(u, k) for k in keys)


@pytest.mark.parametrize("depth", range(2, 13))
def test_scope_search_checks_are_bounded_per_scoping(monkeypatch, depth):
    """At most 3 check runs per scoping found, plus 10: the positions the
    closure allows each label class keep the search from trying placements
    that fail.  Trying every box for every class makes over a hundred runs
    per scoping at depth 9."""
    u = analyze(that_chain(depth)).udrs
    calls = counted(monkeypatch, scoping, "_all_hold")
    n = len(enumerate_scopings(u))
    assert calls[0] <= 3 * n + 10, (calls[0], n)


# --- Cycle guards ----------------------------------------------------------

def cycles_left_by(op) -> int:
    """How many objects op leaves that only the cycle collector frees.  op
    runs once to warm up (first-use imports and one-entry caches), then
    again with the collector off; what a collection then finds unreachable
    is what the second run left in cycles.  The collector's state is
    restored whatever happens."""
    op()
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        op()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def read_everything(u) -> None:
    """Every reading of u, printed, as JSON and checked for binding."""
    for d in enumerate_readings(u):
        assert render_drs(d) and drs_to_json(d)
        assert check_binding(d) == []


def raised(f, *args) -> type:
    """The type of the UDRSError f raises, holding neither it nor its
    traceback (a frame holding its own traceback is a cycle of the
    caller's making)."""
    try:
        f(*args)
    except UDRSError as e:
        return type(e)
    raise AssertionError(f"{f.__name__}{args} raised nothing")


@pytest.mark.parametrize("case", corpus_cases(), ids=lambda case: case.name)
def test_a_corpus_case_leaves_no_cycle(case):
    """Build with the corpus's rules, under each verdict, write to JSON and
    back, and read every reading."""
    def op():
        for _, u in each_verdict(case):
            doc = to_json_str(u)
            assert to_json_str(from_json(doc)) == doc
            if u.pending_slots():
                assert raised(enumerate_readings, u) is UnresolvedSlot
            else:
                read_everything(u)

    assert cycles_left_by(op) == 0


@pytest.mark.parametrize("family", [
    [(text, ()) for text in that_chains()],
    wide_discourses(),
    [(text, ()) for text in quantified_pairs()],
], ids=("that_chains", "wide_discourses", "quantified_pairs"))
def test_a_benchmark_family_leaves_no_cycle(family):
    def op():
        for text, directives in family:
            read_everything(analyze(text, disambiguate=directives).udrs)

    assert cycles_left_by(op) == 0


def test_a_drs_made_by_hand_leaves_no_cycle():
    """Labelling a DRS the reading layer did not build compiles it."""
    def op():
        x, y, z = fresh_referent(), fresh_referent(), fresh_referent(GROUP)
        none = frozenset()
        res = DRS(frozenset({x}), frozenset({("lawyer", (x,))}), frozenset({(x, z)}), none)
        scope = DRS(none, frozenset({("met", (x, y)), ("met", (y, x))}), none, none)
        d = DRS(frozenset({y, z}), frozenset({("clerk", (y,))}), none,
                frozenset({DuplexCondition("every", res, scope)}))
        assert canonical_form(d) and render_drs(d) and drs_to_json(d)

    assert cycles_left_by(op) == 0


def test_tracing_semantics_on_the_command_line_leaves_no_cycle():
    def op():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert run(["parse", "--trace-semantics", "--readings",
                        "Every lawyer believed that a clerk met John."]) == 0
        assert "sentence 1:" in out.getvalue()

    assert cycles_left_by(op) == 0


def test_an_abandoned_scope_search_leaves_no_cycle():
    """A scoping generator dropped after its first scoping is closed, and
    closing it frees its recursive placers."""
    u = analyze("Every lawyer believed that a clerk believed that John left.").udrs
    assert len(enumerate_scopings(u)) > 1

    duplexes = readings._duplexes(u)

    def op():
        assert next(scoping._scopings(u, duplexes, list(u.labels()), readings._boxes(duplexes)))

    assert cycles_left_by(op) == 0


@pytest.mark.parametrize("f,arg,error", [
    (build_session, "John hired.", ParseFailure),
    (build_session, "John zorked a lawyer.", ParseFailure),
    (Lexicon.default().sign, "sesquipedalian", UnknownWord),
    (lambda text: enumerate_readings(build_session(text)[0].udrs),
     "The lawyers hired a secretary.", UnresolvedSlot),
], ids=("no parse", "unknown word in a parse", "unknown word", "unresolved slot"))
def test_a_failing_input_leaves_no_cycle(f, arg, error):
    def op():
        assert raised(f, arg) is error

    assert cycles_left_by(op) == 0
