"""The canonical labelling against the permutation reference.

``canonical_form``, ``render_drs`` and ``drs_to_json`` must give exactly
what ``oracle.reference_canonical`` and the reference printers give: the
same least shape (so dedup keeps the same readings) and byte-identical text
and JSON.  Inputs: every scoped DRS with at most 7 referents of the golden
corpus, of generated families (E: `that`-chains, Q: two quantified
sentences, S: name+indefinite discourses, P: plural discourses under every
directive) and of the three reading-heavy benchmark families rebuilt from
the built-in vocabulary, symmetric discourses, and seeded random DRSs, which
also put referents outside every universe or in several, and repeat one
structure with group and individual referents swapped.  Together they take
every path of the search: a tie branch, a group take, automorphism pruning,
a lockstep step, a group token owed in lockstep, a dive and the search for
the first numbering.  Symmetric inputs too large for the reference are held
to their known form within a time bound.
"""

import itertools
import random
import time
from collections import Counter

import pytest

from conftest import (
    analyze, corpus_cases, quantified_pairs, session_for_case, that_chains,
    wide_discourses,
)
from oracle import (
    all_referents, reference_canonical, reference_json, reference_names,
    reference_render,
)
from test_scope_search import CHAINS, DISCOURSES
from udrs.core import GROUP, INDIVIDUAL, DiscourseReferent
from udrs.plurals import COLLECTIVE, DISTRIBUTIVE
from udrs.canonical import canonical_labelling
from udrs.readings import (
    DRS, DuplexCondition, build_drs, canonical_form, check_binding,
    count_readings, drs_to_json, enumerate_scopings, render_drs,
)

MAX_REFERENTS = 7  # the reference tries n! renamings


def s_discourse(dets) -> str:
    """Name+indefinite transitive sentences, one per pair of determiners."""
    nouns = iter(("lawyer", "secretary", "philosopher", "student", "clerk", "office"))
    names, verbs = itertools.cycle(("john", "mary")), itertools.cycle(("hired", "met"))
    nps = [next(names) if det == "name" else next(f"an {n}" if n[0] in "aeiou" else f"a {n}"
                                                  for n in nouns)
           for det in dets]
    return " ".join(f"{a} {next(verbs)} {b}.".capitalize()
                    for a, b in zip(nps[::2], nps[1::2]))


S_FAMILY = [s_discourse(dets) for k in (2, 3)
            for dets in itertools.product(("name", "a"), repeat=2 * k)]
P_FAMILY = [(text, ((1, first), (2, second)))
            for text in ("The lawyers hired a secretary. The clerks hired an office.",
                         "The lawyers hired a secretary. The clerks left.",
                         "The lawyers hired John. The clerks left.")
            for first, second in itertools.product((COLLECTIVE, DISTRIBUTIVE), repeat=2)]
# (text, directives, readings); the counts are the permutation loop's
SYMMETRIC = [
    ("John left. John left.", (), 1),
    ("Every lawyer met every lawyer.", (), 2),
    ("A lawyer met a clerk. A lawyer met a clerk. A lawyer met a clerk.", (), 1),
    ("A lawyer left. The lawyers left.", ((1, COLLECTIVE),), 1),
    ("The lawyers left. A lawyer left.", ((1, COLLECTIVE),), 1),
    ("The lawyers left. The lawyers left.", ((1, DISTRIBUTIVE), (2, DISTRIBUTIVE)), 5),
    ("Every lawyer left. Every lawyer left.", (), 5),
]


def scoped_drss(u) -> list[DRS]:
    """Every DRS a scoping of u builds that the binding filter keeps."""
    drss = (build_drs(u, s) for s in enumerate_scopings(u))
    return [d for d in drss if not check_binding(d)]


def assert_matches_reference(d: DRS) -> None:
    shape, naming = reference_canonical(d)
    names = reference_names(naming)
    assert canonical_form(d) == shape
    assert render_drs(d) == reference_render(d, names)
    assert drs_to_json(d) == reference_json(d, names)


def check_small(u) -> None:
    drss = [d for d in scoped_drss(u) if len(all_referents(d)) <= MAX_REFERENTS]
    assert drss
    for d in drss:
        assert_matches_reference(d)


@pytest.mark.parametrize("case", corpus_cases(), ids=lambda c: c.name)
def test_corpus(case):
    u = session_for_case(case).udrs
    if u.pending_slots():
        for verdict in (COLLECTIVE, DISTRIBUTIVE):
            variant = session_for_case(case)
            variant.disambiguate(1, verdict)
            check_small(variant.udrs)
    else:
        check_small(u)


@pytest.mark.parametrize("text", CHAINS)
def test_e_family(text):
    check_small(analyze(text).udrs)


@pytest.mark.parametrize("text", DISCOURSES)
def test_q_family(text):
    check_small(analyze(text).udrs)


@pytest.mark.parametrize("text", S_FAMILY)
def test_s_family(text):
    check_small(analyze(text).udrs)


@pytest.mark.parametrize("text,directives", P_FAMILY)
def test_p_family(text, directives):
    check_small(analyze(text, disambiguate=directives).udrs)


@pytest.mark.parametrize("text,directives,readings", SYMMETRIC)
def test_symmetric(text, directives, readings):
    u = analyze(text, disambiguate=directives).udrs
    check_small(u)
    assert count_readings(u) == readings


@pytest.mark.parametrize("text", that_chains())
def test_bench_that_chains(text):
    check_small(analyze(text).udrs)


@pytest.mark.parametrize("text,directives", wide_discourses())
def test_bench_wide_discourses(text, directives):
    check_small(analyze(text, disambiguate=directives).udrs)


@pytest.mark.parametrize("text", quantified_pairs())
def test_bench_quantified_pairs(text):
    check_small(analyze(text).udrs)


# --- Seeded random DRSs ---------------------------------------------------------

def random_box(rng: random.Random, refs: list, depth: int) -> DRS:
    preds = {(rng.choice("pqr"), tuple(rng.choice(refs) for _ in range(rng.randint(1, 2))))
             for _ in range(rng.randint(0, 4))}
    members = {(rng.choice(refs), rng.choice(refs)) for _ in range(rng.randint(0, 1))}
    duplexes = {DuplexCondition(rng.choice(("every", "a")), random_box(rng, refs, depth - 1),
                                random_box(rng, refs, depth - 1))
                for _ in range(rng.randint(0, 2) if depth else 0)}
    return DRS(frozenset(r for r in refs if rng.random() < 0.3), frozenset(preds),
               frozenset(members), frozenset(duplexes))


def rename(d: DRS, m: dict) -> DRS:
    return DRS(frozenset(m[r] for r in d.referents),
               frozenset((rel, tuple(m[a] for a in args)) for rel, args in d.predicates),
               frozenset((m[e], m[g]) for e, g in d.memberships),
               frozenset(DuplexCondition(x.rel, rename(x.res, m), rename(x.scope, m))
                         for x in d.duplexes))


def side_by_side(boxes: list[DRS]) -> DRS:
    return DRS(*(frozenset().union(*(getattr(b, f) for b in boxes))
                 for f in ("referents", "predicates", "memberships", "duplexes")))


def random_drs(rng: random.Random) -> DRS:
    """A random DRS, or two or three copies of one side by side, each copy
    with fresh referents and, half the time, every sort swapped."""
    refs = [DiscourseReferent(10 * rng.randint(1, 999) + i, rng.choice((INDIVIDUAL, GROUP)))
            for i in range(rng.randint(1, 4))]
    d = random_box(rng, refs, rng.randint(0, 2))
    copies = rng.choice((1, 1, 2, 3))
    used = sorted(all_referents(d), key=lambda r: r.uid)
    if copies > 1 and len(used) * copies <= 5:
        swap = {INDIVIDUAL: GROUP, GROUP: INDIVIDUAL}
        boxes = [d]
        for c in range(1, copies):
            flip = rng.random() < 0.5
            boxes.append(rename(d, {r: DiscourseReferent(
                r.uid + 10000 * c, swap[r.sort] if flip else r.sort) for r in used}))
        d = side_by_side(boxes)
    return d


@pytest.mark.parametrize("seed", range(12))
def test_random_drss(seed):
    rng = random.Random(seed)
    for _ in range(25):
        assert_matches_reference(random_drs(rng))


def test_group_and_individual_swapped_by_an_automorphism():
    """Two duplexes alike but for one referent's sort: several numberings
    give the least shape, and the names must come from the first one in uid
    order, as in the reference; a search that keeps whichever it meets
    first names them the other way round for half of these."""
    x, empty = DiscourseReferent(1), frozenset()

    def duplex(u):
        return DuplexCondition("every", DRS(frozenset({u}), frozenset({("q", (u, x))}),
                                            empty, empty),
                               DRS(empty, frozenset({("r", (u, x))}), empty, empty))

    for uids in ((4, 5), (5, 4)):
        for sorts in ((INDIVIDUAL, GROUP), (GROUP, INDIVIDUAL)):
            a, b = (DiscourseReferent(uid, sort) for uid, sort in zip(uids, sorts))
            assert_matches_reference(DRS(frozenset({x}), frozenset({("p", (x,))}), empty,
                                         frozenset({duplex(a), duplex(b)})))


def two_copies_owing_a_group_token() -> DRS:
    """random_drs(Random(22)), 7th draw: two copies of one universe-less
    box, sorts swapped.  Its search steps several entries in lockstep while
    they still owe the tokens of items taken as a group."""
    a, b = DiscourseReferent(5401, GROUP), DiscourseReferent(7872)
    c, d = DiscourseReferent(15401, GROUP), DiscourseReferent(17872)
    preds = {("p", (a,)), ("r", (a, a)), ("p", (b,)), ("r", (b,)),
             ("p", (c,)), ("r", (c, c)), ("p", (d,)), ("r", (d,))}
    return DRS(frozenset(), frozenset(preds), frozenset({(a, b), (c, d)}), frozenset())


def test_group_token_owed_in_lockstep():
    assert_matches_reference(two_copies_owing_a_group_token())


def test_inputs_take_every_search_path(monkeypatch):
    """The inputs above branch on a tie, take tied items as a group, prune a
    branch by an automorphism, step several entries in lockstep, drain a
    queued group token there, dive to a leaf and search for the first
    numbering, each at least once, so the reference checks cover every
    path."""
    import sys
    import udrs.canonical as canonical
    seen: Counter = Counter()
    prune = canonical._Labelling.prune
    take_group = canonical._take_group
    first_numbering = canonical._Labelling.first_numbering
    dive = canonical._Labelling.dive
    next_token = canonical._next

    def counting_next(lo, stack):
        caller = sys._getframe(1)  # from run while its frontier holds several: lockstep
        if caller.f_code.co_name == "run" and len(caller.f_locals["frontier"]) > 1:
            seen["lockstep step"] += 1
            if stack[3]:
                seen["queued token in lockstep"] += 1
        return next_token(lo, stack)

    def counting_dive(self, e):
        seen["dive"] += 1
        return dive(self, e)

    def counting_prune(self, frontier, branched):
        kept = prune(self, frontier, branched)
        seen["tie branch"] += 1  # the frontier holds two entries only after a tie
        seen["automorphism pruning"] += len(frontier) - len(kept)
        return kept

    def counting_take_group(*args):
        seen["group take"] += 1
        return take_group(*args)

    def counting_first_numbering(self, nu, col):
        seen["first_numbering"] += 1
        return first_numbering(self, nu, col)

    monkeypatch.setattr(canonical._Labelling, "prune", counting_prune)
    monkeypatch.setattr(canonical, "_take_group", counting_take_group)
    monkeypatch.setattr(canonical._Labelling, "first_numbering", counting_first_numbering)
    monkeypatch.setattr(canonical._Labelling, "dive", counting_dive)
    monkeypatch.setattr(canonical, "_next", counting_next)
    inputs = [(text, ()) for text in that_chains() + quantified_pairs() + CHAINS
              + DISCOURSES + S_FAMILY]
    inputs += wide_discourses() + P_FAMILY + [(text, dirs) for text, dirs, _ in SYMMETRIC]
    for text, directives in inputs:
        for d in scoped_drss(analyze(text, disambiguate=directives).udrs):
            canonical_labelling(d)
    for seed in range(12):
        rng = random.Random(seed)
        for _ in range(25):
            canonical_labelling(random_drs(rng))
    canonical_labelling(two_copies_owing_a_group_token())
    assert all(seen[path] for path in ("tie branch", "group take", "automorphism pruning",
                                       "lockstep step", "queued token in lockstep", "dive",
                                       "first_numbering")), dict(seen)


# --- Symmetric inputs beyond the reference --------------------------------------

def flat_shape(n: int, preds: list) -> tuple:
    return (tuple(range(n)), tuple(sorted(preds)), (), ())


@pytest.mark.parametrize("text,shape", [
    ("A clerk hired a secretary. " * 4, flat_shape(8, [
        *(("clerk", (i,)) for i in range(4)), *(("hire", (i, 4 + i)) for i in range(4)),
        *(("secretary", (4 + i,)) for i in range(4))])),
    ("A clerk hired a secretary. " * 6, flat_shape(12, [
        *(("clerk", (i,)) for i in range(6)), *(("hire", (i, 6 + i)) for i in range(6)),
        *(("secretary", (6 + i,)) for i in range(6))])),
    ("A lawyer left. " * 8, flat_shape(8, [
        *(("lawyer", (i,)) for i in range(8)), *(("leave", (i,)) for i in range(8))])),
    ("John left. " * 6, flat_shape(6, [
        *(("john", (i,)) for i in range(6)), *(("leave", (i,)) for i in range(6))])),
])
def test_symmetric_discourse_within_a_second(text, shape):
    (d,) = scoped_drss(analyze(text.strip()).udrs)
    t0 = time.perf_counter()
    form = canonical_form(d)
    text_out = render_drs(d)
    elapsed = time.perf_counter() - t0
    assert form == shape
    header = text_out.splitlines()[1].strip("| ").split()
    assert header == sorted(f"x{i}" for i in shape[0])
    assert elapsed < 1.0, f"{elapsed:.2f} s"


def test_each_reading_is_labelled_once(monkeypatch):
    """Dedup runs the search once per reading, on the boxes the reading
    table compiled, never compiling a DRS on its own; printing reuses that
    labelling."""
    import udrs.canonical
    from udrs.readings import enumerate_readings
    calls = []
    search = udrs.canonical.label_boxes
    monkeypatch.setattr(udrs.canonical, "label_boxes",
                        lambda refs, top: calls.append(top) or search(refs, top))
    monkeypatch.setattr(udrs.canonical, "_compile", None)  # a DRS-side compile fails
    readings = enumerate_readings(analyze("Every lawyer hired a secretary.").udrs)
    labelled = len(calls)
    assert len(readings) == 2 and labelled >= 2
    for d in readings:
        render_drs(d)
        drs_to_json(d)
        canonical_form(d)
    assert len(calls) == labelled  # printing reads dedup's labelling
