"""The canonical labelling against the permutation references.

``canonical_form``, ``render_drs`` and ``drs_to_json`` must give exactly
what the oracle and the reference printers give: byte-identical text and
JSON, printed in number order, and the same form.  A reading none of whose
boxes can tie is held to ``oracle.sorted_canonical``, the least shape over
the numberings that give groups the lesser numbers; one that can tie to
``oracle.refined_canonical``, the least shape over the numberings that
respect the oracle's own colour refinement.  On every input set, forms are
equal exactly when the keys of ``oracle.reference_identity``, the least
shape and sorts over all numberings, are: when a renaming that keeps sorts
maps one DRS onto the other.  Where no renaming that swaps sorts maps one
input onto another, as in every set but one here, that is when the forms
of ``oracle.reference_canonical``, the least shape over all numberings,
are equal, so dedup keeps the same readings.

Inputs: every scoped DRS with at most 7 referents of the golden corpus, of
generated families (E: `that`-chains, Q: two quantified sentences, S:
name+indefinite discourses, P: plural discourses under every directive)
and of the three reading-heavy benchmark families rebuilt from the
built-in vocabulary, symmetric discourses, and seeded random DRSs, which
also put referents outside every universe or in several, and repeat one
structure with group and individual referents swapped.  Together they
take every path of the labelling: the walk, to its end or to a tie, and
in the search a tie branch, a group take, automorphism pruning by a
partition map, a lockstep step and a group token owed in lockstep.  The
walk is also held to the search it stands in for, on every tree it walks
to the end, and every form to the oracle's shape under the numbering that
comes with it.  Renaming the referents of any tree, sorts kept, changes
none of its printed text, and readings of more than ten referents print
x0 x1 x2 ... x10 in number order.  Symmetric inputs too large for the
reference are held to their known form within a time bound.
"""

import itertools
import random
import time
from collections import Counter

import pytest

from conftest import (
    analyze, corpus_cases, each_verdict, quantified_pairs, session_for_case,
    that_chains, wide_discourses,
)
from oracle import (
    _shape as oracle_shape, all_referents, can_tie, reference_canonical, reference_identity,
    reference_json, reference_ranks, reference_render, refined_canonical, sorted_canonical,
)
from test_scope_search import CHAINS, DISCOURSES
from udrs.core import GROUP, INDIVIDUAL, DiscourseReferent
from udrs.plurals import COLLECTIVE, DISTRIBUTIVE
import udrs.canonical as canonical
from udrs.readings import (
    DRS, DuplexCondition, build_drs, canonical_form, check_binding,
    count_readings, drs_to_json, enumerate_readings, enumerate_scopings,
    render_drs,
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


def assert_matches_reference(d: DRS) -> tuple:
    """Hold d's form and printed text to the oracle; reference_identity's
    key of d."""
    shape, naming = refined_canonical(d) if can_tie(d) else sorted_canonical(d)
    assert canonical_form(d) == shape
    assert render_drs(d) == reference_render(d, naming)
    assert drs_to_json(d) == reference_json(d, naming)
    return reference_identity(d)


def check_all(drss: list[DRS], sort_swapped: int = 0) -> None:
    """Hold each DRS to the oracle, and their forms to be equal exactly
    when reference_identity's keys are: when a renaming that keeps sorts
    maps one onto the other.  Where only renamings that swap a group with
    an individual map two DRSs onto each other, they get two forms
    (test_a_renaming_that_swaps_sorts) and reference_canonical one; the set
    has sort_swapped more forms than reference_canonical has, so forms are
    equal exactly when reference_canonical's are where that is 0."""
    pairs = {(canonical_form(d), assert_matches_reference(d)) for d in drss}
    keys = {key for _, key in pairs}
    assert len(pairs) == len({form for form, _ in pairs}) == len(keys)
    assert len(keys) - len({shape for shape, _ in keys}) == sort_swapped


def check_small(u) -> None:
    drss = [d for d in scoped_drss(u) if len(all_referents(d)) <= MAX_REFERENTS]
    assert drss
    check_all(drss)


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


def shuffled_uids(d: DRS, rng: random.Random) -> DRS:
    """d with its referents' uids shuffled among them, sorts kept."""
    refs = sorted(all_referents(d), key=lambda r: r.uid)
    uids = [r.uid for r in refs]
    rng.shuffle(uids)
    return rename(d, {r: DiscourseReferent(uid, r.sort) for r, uid in zip(refs, uids)})


# Seed 5 draws two DRSs that only a renaming swapping sorts maps onto each
# other: a membership of two groups beside an individual, and of two
# individuals beside a group.
SORT_SWAPPED = {5: 1}


@pytest.mark.parametrize("seed", range(12))
def test_random_drss(seed):
    """Each random DRS and a copy with its uids shuffled, as one input set."""
    rng = random.Random(seed)
    drss = [random_drs(rng) for _ in range(25)]
    check_all(drss + [shuffled_uids(d, rng) for d in drss], SORT_SWAPPED.get(seed, 0))


def test_renaming_a_tree_changes_no_printed_text():
    """The names come from the form and the sorts, not from the uids: with
    the uids of any tree shuffled, forced or not, render_drs and drs_to_json
    print the same bytes."""
    shuffled = Counter()
    for seed in range(200):
        rng = random.Random(seed)
        for _ in range(25):
            d = random_drs(rng)
            e = shuffled_uids(d, rng)
            shuffled[can_tie(d)] += e != d
            assert render_drs(e) == render_drs(d)
            assert drs_to_json(e) == drs_to_json(d)
    assert shuffled[True] > 1000 and shuffled[False] > 500, shuffled


def test_a_lone_universe_of_both_sorts_names_the_group_first():
    """One individual and one group in a universe, in no condition: a forced
    tree whose two referents no condition tells apart.  Under either uid
    order the group is X0 and the individual x1."""
    for uids in ((1, 2), (2, 1)):
        x, g = DiscourseReferent(uids[0]), DiscourseReferent(uids[1], GROUP)
        d = box((x, g))
        assert not can_tie(d)
        assert render_drs(d).splitlines()[1] == "| X0 x1 |"
        assert drs_to_json(d) == {"referents": ["X0", "x1"], "conditions": []}
        assert_matches_reference(d)


# --- Printing in number order ----------------------------------------------------
# Display names compare as strings: x10 comes before x2.  The printers print
# in number order, x2 before x10, so they are held to the reference printers
# on readings with more than ten referents and on readings of both sorts,
# named by the library's own numbering (the reference's n! search is out of
# reach at this size).

LONG = [
    (" ".join(["A clerk hired a secretary."] * 6), ()),
    ("The lawyers hired a secretary. A clerk met a student. The clerks hired an office. "
     "A philosopher met a lawyer. The students hired John. Mary met John.",
     ((1, COLLECTIVE), (2, COLLECTIVE), (3, COLLECTIVE))),
    ("The lawyers hired John. The clerks met Mary. John met Mary.",
     ((1, DISTRIBUTIVE), (2, COLLECTIVE))),
]


def test_printers_print_in_number_order():
    """Readings with more than ten referents, and of both sorts, print
    each part in number order, as the reference printers do under the
    same numbering: the top universe reads x2 before x10."""
    drss = [d for text, directives in LONG
            for d in enumerate_readings(analyze(text, disambiguate=directives).udrs)]
    rng = random.Random(1995)
    for _ in range(40):
        refs = [DiscourseReferent(uid, rng.choice((INDIVIDUAL, GROUP)))
                for uid in range(rng.randint(11, 14))]
        drss.append(random_box(rng, refs, 2))
    long = both_sorts = 0
    for d in drss:
        numbering = d.labelling[1]
        assert render_drs(d) == reference_render(d, numbering)
        assert drs_to_json(d) == reference_json(d, numbering)
        header = [int(name[1:]) for name in drs_to_json(d)["referents"]]
        assert header == sorted(header)
        long += any(n >= 10 for n in header)
        both_sorts += len({r.sort for r in numbering}) == 2
    assert long and both_sorts


def test_group_and_individual_swapped_by_an_automorphism():
    """Two duplexes alike but for one referent's sort: without sorts in the
    colours, a map swapping the two would be an automorphism of the shape.
    The names follow the sorts, whichever uid order they come in."""
    x, empty = DiscourseReferent(1), frozenset()

    def duplex(u):
        return DuplexCondition("every", DRS(frozenset({u}), frozenset({("q", (u, x))}),
                                            empty, empty),
                               DRS(empty, frozenset({("r", (u, x))}), empty, empty))

    printed = set()
    for uids in ((4, 5), (5, 4)):
        for sorts in ((INDIVIDUAL, GROUP), (GROUP, INDIVIDUAL)):
            a, b = (DiscourseReferent(uid, sort) for uid, sort in zip(uids, sorts))
            d = DRS(frozenset({x}), frozenset({("p", (x,))}), empty,
                    frozenset({duplex(a), duplex(b)}))
            assert_matches_reference(d)
            printed.add(render_drs(d))
    assert len(printed) == 1


def two_copies_owing_a_group_token() -> DRS:
    """random_drs(Random(225)), 25th draw: two copies of one universe-less
    box of groups.  Its search steps several entries in lockstep while they
    still owe the tokens of items taken as a group."""
    a, b = DiscourseReferent(5800, GROUP), DiscourseReferent(8171, GROUP)
    c, d = DiscourseReferent(15800, GROUP), DiscourseReferent(18171, GROUP)
    preds = {("p", (a,)), ("p", (b,)), ("p", (b, b)),
             ("p", (c,)), ("p", (d,)), ("p", (d, d))}
    return DRS(frozenset(), frozenset(preds), frozenset({(b, a), (d, c)}), frozenset())


def two_copies_of_a_group_and_an_individual() -> DRS:
    """random_drs(Random(22)), 7th draw: two copies of one universe-less
    box, each with a group and an individual referent.  Before sorts were
    the first colour, this was the input whose search owed a group token in
    lockstep; it is kept as a case of copies mixing both sorts."""
    a, b = DiscourseReferent(5401, GROUP), DiscourseReferent(7872)
    c, d = DiscourseReferent(15401, GROUP), DiscourseReferent(17872)
    preds = {("p", (a,)), ("r", (a, a)), ("p", (b,)), ("r", (b,)),
             ("p", (c,)), ("r", (c, c)), ("p", (d,)), ("r", (d,))}
    return DRS(frozenset(), frozenset(preds), frozenset({(a, b), (c, d)}), frozenset())


def test_group_token_owed_in_lockstep():
    check_all([two_copies_owing_a_group_token(), two_copies_of_a_group_and_an_individual()])


def family_inputs() -> list[tuple]:
    """(text, directives) of every generated and benchmark family above."""
    inputs = [(text, ()) for text in that_chains() + quantified_pairs() + CHAINS
              + DISCOURSES + S_FAMILY]
    return inputs + wide_discourses() + P_FAMILY + [(t, dirs) for t, dirs, _ in SYMMETRIC]


def test_inputs_take_every_search_path(monkeypatch):
    """The inputs above walk trees to the end and to a tie, and in the
    search branch on a tie, take tied items as a group, prune a branch by
    an automorphism, step several entries in lockstep and drain a queued
    group token there, each at least once, so the reference checks cover
    every path."""
    import sys
    seen: Counter = Counter()
    prune = canonical._Labelling.prune
    take_group = canonical._take_group
    next_token = canonical._next
    walk = canonical._walk

    def counting_next(lo, stack):
        caller = sys._getframe(1)  # from run while its frontier holds several: lockstep
        if caller.f_code.co_name == "run" and len(caller.f_locals["frontier"]) > 1:
            seen["lockstep step"] += 1
            if stack[3]:
                seen["queued token in lockstep"] += 1
        return next_token(lo, stack)

    def counting_prune(self, frontier):
        kept = prune(self, frontier)
        seen["tie branch"] += 1  # the frontier holds two entries only after a tie
        seen["automorphism pruning"] += len(frontier) - len(kept)
        return kept

    def counting_take_group(*args):
        seen["group take"] += 1
        return take_group(*args)

    def counting_walk(lo, box):
        seen["walk"] += 1
        try:
            return walk(lo, box)
        except canonical._Tie:
            seen["walk to a tie"] += 1
            raise

    monkeypatch.setattr(canonical._Labelling, "prune", counting_prune)
    monkeypatch.setattr(canonical, "_take_group", counting_take_group)
    monkeypatch.setattr(canonical, "_next", counting_next)
    monkeypatch.setattr(canonical, "_walk", counting_walk)
    for text, directives in family_inputs():
        for d in scoped_drss(analyze(text, disambiguate=directives).udrs):
            DRS(*d).labelling  # a copy made by hand, which compiles itself
    for seed in range(12):
        rng = random.Random(seed)
        for _ in range(25):
            DRS(*random_drs(rng)).labelling
    DRS(*two_copies_owing_a_group_token()).labelling
    assert all(seen[path] for path in ("walk", "walk to a tie", "tie branch",
                                       "group take", "automorphism pruning",
                                       "lockstep step", "queued token in lockstep")), dict(seen)


# --- The walk, and the search it stands in for --------------------------------

def compiled_drss():
    """Every scoped DRS of the inputs above, carrying its tree as the
    reading table compiles it, and random_drs seeds 0-199, which _compile
    compiles when they are labelled."""
    udrss = [u for case in corpus_cases() for _, u in each_verdict(case)]
    udrss += [analyze(text, disambiguate=directives).udrs
              for text, directives in family_inputs()]
    for u in udrss:
        yield from scoped_drss(u)
    for seed in range(200):
        rng = random.Random(seed)
        for _ in range(25):
            yield random_drs(rng)


def table_box(d):
    """(refs, top) of a DRS the reading table built, None for one made by
    hand (before its labelling compiles it)."""
    return d._box and (d._frame.refs, d._box)


def compiled_trees():
    """(refs, top) of every DRS of compiled_drss."""
    for d in compiled_drss():
        yield table_box(d) or canonical._compile(d)


def test_walk_is_the_search_it_replaces():
    """On every tree, from the partition its labelling starts from (the
    sort partition, refined by colour where the tree can tie), the walk
    either stops at a tie or gives the shape and final partition of the
    search, read by _shape.  A forced tree never stops."""
    paths = Counter()
    for refs, top in compiled_trees():
        lo = canonical._firsts([r.sort for r in refs])
        if not top.forced:
            lo = canonical._ranks(lo, top)
        searched_lo = canonical._Labelling(top).run(list(lo))
        try:
            shape = canonical._walk(lo, top)
        except canonical._Tie:
            assert not top.forced
            paths["stopped"] += 1
            continue
        paths["forced" if top.forced else "refined"] += 1
        searched = canonical._shape(top, canonical._complete(searched_lo))
        assert (shape, lo) == (searched, searched_lo)
    assert paths["forced"] > 2000 and paths["refined"] > 2000 and paths["stopped"] > 1000, paths


def test_form_is_the_oracle_shape_under_the_numbering():
    """On every DRS of compiled_drss, walked or searched, the form is the
    oracle's shape of the DRS under the numbering the labelling returns."""
    paths = Counter()
    for d in compiled_drss():
        compiled = table_box(d) or canonical._compile(d)
        paths[compiled[1].forced] += 1
        assert canonical_form(d) == oracle_shape(d, d.labelling[1])
    assert paths[True] > 4000 and paths[False] > 4000, paths


def two_duplexes_of_one_rel(sorts: tuple) -> tuple[list, tuple]:
    """Referents over sorts and the two orders of top box 0 with p(0) and,
    for 1 and for 2, a duplex every(q(i)) (r(i, 0)): the duplexes share a
    rel, and one swaps with the other by an automorphism."""
    refs = [DiscourseReferent(uid, sort) for uid, sort in enumerate(sorts)]

    def top(order):
        dups = [("every", canonical.Box((i,), [("q", (i,))], [], []),
                 canonical.Box((), [("r", (i, 0))], [], [])) for i in order]
        return canonical.Box((0,), [("p", (0,))], [], dups)

    return refs, (top((1, 2)), top((2, 1)))


@pytest.mark.parametrize("sorts", [(INDIVIDUAL,) * 3, (INDIVIDUAL, INDIVIDUAL, GROUP)],
                         ids=("one sort", "both sorts"))
def test_duplex_order_changes_no_form_or_sort(sorts):
    """Same-rel duplexes given in either order give the same form and the
    same sort at every number, so the same display names."""
    refs, tops = two_duplexes_of_one_rel(sorts)
    labelled, numberings = [], []
    for top in tops:
        assert not top.forced
        form, numbering = canonical.label_boxes(refs, top, canonical._firsts(list(sorts)))
        labelled.append((form, sorted((i, r.sort) for r, i in numbering.items())))
        numberings.append(numbering)
    assert labelled[0] == labelled[1]
    if len(set(sorts)) == 1:  # the order is live: it picks which referent is 1
        assert numberings[0] != numberings[1]


X, Y, G = DiscourseReferent(1), DiscourseReferent(2), DiscourseReferent(3, GROUP)


def box(refs=(), preds=(), mems=(), dups=()) -> DRS:
    return DRS(frozenset(refs), frozenset(preds), frozenset(mems), frozenset(dups))


def every(res: DRS, scope: DRS) -> DuplexCondition:
    return DuplexCondition("every", res, scope)


def test_refinement_runs_until_no_colour_splits():
    """A chain p(0, 1), p(1, 2), p(2, 3), p(3, 4) with q(0): each round of
    refinement tells apart one more of the referents, and the form is the
    one the last round gives, not the first."""
    refs = [DiscourseReferent(uid) for uid in range(1, 6)]
    d = box(refs, {("q", (refs[0],))} | {("p", pair) for pair in zip(refs, refs[1:])})
    assert sorted(reference_ranks(d).values()) == list(range(5))
    assert_matches_reference(d)


def test_a_renaming_that_swaps_sorts():
    """p(a), p(b), q(a), once with a a group and b an individual and once
    with the sorts swapped: only a renaming that swaps a group with an
    individual maps one onto the other.  Every numbering gives groups the
    lesser numbers, so the two get the forms with q(0) and q(1);
    reference_canonical, which sorts do not enter, gives them one.  The
    forced tree p(a), q(b) gets two forms too, p(0), q(1) and p(1), q(0).
    In both, a renaming that keeps sorts (the uids swapped) keeps the form."""
    for preds in ({("p", "a"), ("p", "b"), ("q", "a")}, {("p", "a"), ("q", "b")}):
        least, keys, by_sort_of_a = set(), set(), {}
        for uids in ((1, 2), (2, 1)):
            for sorts in ((GROUP, INDIVIDUAL), (INDIVIDUAL, GROUP)):
                refs = dict(zip("ab", (DiscourseReferent(u, s) for u, s in zip(uids, sorts))))
                d = box(refs.values(), {(rel, (refs[name],)) for rel, name in preds})
                keys.add(assert_matches_reference(d))
                least.add(reference_canonical(d)[0])
                by_sort_of_a.setdefault(sorts[0], set()).add(canonical_form(d))
        assert len(least) == 1 and len(keys) == 2
        assert all(len(f) == 1 for f in by_sort_of_a.values())
        assert len(set.union(*by_sort_of_a.values())) == 2


# one per way a tree can tie; the last ties only in a nested box, where
# refinement tells the tied referents apart
CAN_TIE = {
    "two predicates of one rel": box((X, Y), {("p", (X,)), ("p", (Y,))}),
    "two memberships": box((X, Y, G), mems={(X, G), (Y, G)}),
    "two duplexes of one rel": box((G,), {("p", (G,))}, dups={
        every(box((X,), {("q", (X,))}), box(preds={("r", (X, G))})),
        every(box((Y,), {("q", (Y,))}), box(preds={("r", (Y, G))}))}),
    "a tie in a nested box only": box((G,), {("p", (G,))}, {(X, G)}, {
        every(box((X, Y), {("q", (X,)), ("q", (Y,))}), box(preds={("r", (X, Y))}))}),
}


@pytest.mark.parametrize("name", CAN_TIE)
def test_trees_that_can_tie_are_searched(monkeypatch, name):
    """Each tree that can tie matches the reference, and the search runs
    on it exactly when a tie survives the oracle's colour refinement; a
    tree it leaves discrete is walked."""
    d = CAN_TIE[name]
    top = canonical._compile(d)[1]
    assert not top.forced
    if name == "a tie in a nested box only":
        ((_, res, scope),) = top.lists[3]
        assert (res.forced, scope.forced) == (False, True)
    ranks = reference_ranks(d)
    tied = len(set(ranks.values())) < len(ranks)
    assert tied == (name != "a tie in a nested box only")
    runs = []
    run = canonical._Labelling.run
    monkeypatch.setattr(canonical._Labelling, "run",
                        lambda self, lo: runs.append(lo) or run(self, lo))
    assert_matches_reference(d)
    assert bool(runs) == tied


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
    assert header == [f"x{i}" for i in shape[0]]
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
                        lambda refs, top, lo: calls.append(top) or search(refs, top, lo))
    monkeypatch.setattr(udrs.canonical, "_compile", None)  # a DRS-side compile fails
    readings = enumerate_readings(analyze("Every lawyer hired a secretary.").udrs)
    labelled = len(calls)
    assert len(readings) == 2 and labelled >= 2
    for d in readings:
        render_drs(d)
        drs_to_json(d)
        canonical_form(d)
    assert len(calls) == labelled  # printing reads dedup's labelling


def test_names_follow_each_numbers_sort_for_any_sort():
    """A sort that sorts before "group", as from_json accepts, takes the
    least numbers, and the printers still name each number by its
    referent's sort: x<i> for it, X<i> for the groups after it, in readings
    built from a document and in DRSs made by hand."""
    import json
    from udrs import from_json, to_json
    doc = to_json(analyze("The lawyers hired a clerk.", disambiguate=((1, DISTRIBUTIVE),)).udrs)
    doc = json.loads(json.dumps(doc).replace('"sort": "individual"', '"sort": "atom"'))
    drss = enumerate_readings(from_json(doc))
    rng = random.Random(1996)
    for _ in range(20):
        refs = [DiscourseReferent(uid, rng.choice(("atom", GROUP, INDIVIDUAL)))
                for uid in range(rng.randint(3, 6))]
        drss.append(random_box(rng, refs, 2))
    atoms = 0
    for d in drss:
        numbering = d.labelling[1]
        assert render_drs(d) == reference_render(d, numbering)
        assert drs_to_json(d) == reference_json(d, numbering)
        atoms += any(r.sort == "atom" for r in numbering) and any(
            r.sort == GROUP for r in numbering)
    assert atoms > 10
