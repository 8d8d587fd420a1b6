"""Reading identity: the canonical numbering of a scoped DRS's referents.

Two scoped DRSs are the same reading when a renaming of referents that
keeps their sorts maps one onto the other.  Under a numbering of them by
0..n-1 a box's shape is (universe, predicates, memberships, duplexes),
each part a sorted tuple of numbered items and a duplex (rel, restrictor
shape, scope shape).  The least shape, over the numberings that respect an
order of the referents that renaming keeps, is the reading's identity
(readings.canonical_form), and a numbering giving it names the referents.

The search runs on boxes over referent indices (Box), the referents
numbered in uid order.  Two compilers feed it: _compile turns a DRS into
such boxes (readings.DRS.labelling), and the reading layer's per-UDRS table
builds one for each scoping, which is that reading, and hands it to
label_boxes with the sort partition it computed once.  The
search steps through the shape in the order shapes compare: a box's
universe, predicates, memberships, then duplexes (restrictor, then scope),
each list closed by _END.  Numbers are committed through an ordered
partition lo: lo[i] is the first number of the cell referent i sits in, and
it takes one number of that cell.  A universe moves its referents to the
front of their cells; the least next item gives each of its referents the
first number of its cell.  The search branches only on tied items, keeps
the branches whose next token is least, and drops a branch when the map of
a kept branch's partition onto its own is an automorphism taking one to the
other: individualization–refinement and automorphism pruning after McKay &
Piperno, "Practical graph isomorphism, II" (2014), cut down to DRS trees.
It returns its final partition; the least shape is read off the tree under
any numbering within it (_shape).

Every search starts from the sort partition (_firsts of the sorts), so
groups take the lesser numbers and the order is one renaming keeps.  No
automorphism then swaps a group with an individual, and every numbering
within the final partition prints the same.  A tree that can tie (see Box)
refines that partition by colour (_ranks) first, which tells apart before
the first branch what only later relations would, so repeated structure is
not a branch per tie.

From there the search is one path until it meets a real tie, and mostly it
meets none: refinement leaves every referent its own colour, and then that
partition is the numbering, read off by _shape with no step.  Otherwise
_walk follows that path, building the nested shape as it goes: in each
list it takes the items of one rel in order of their least token, and it
stops where two items tie on it or two duplexes share a rel.  Only then does the search
proper (_Labelling.run) run, over again from the same partition.  A walk's
tokens come in the order shapes sort, so its shape is _shape's under any
numbering within its final partition.  A tree with no two items of one rel
in any list (forced) can never tie, and its automorphisms only permute
referents of one sort in the same universes and in no condition; those
share a cell of the walk's final partition, which _complete numbers in uid
order.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import groupby
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Optional

from .core import DiscourseReferent

if TYPE_CHECKING:
    from .readings import DRS

_END = (0,)  # ends a list; less than every (1, element) token


def label_boxes(refs: list[DiscourseReferent], top: Box,
                lo: list[int]) -> tuple[tuple, dict[DiscourseReferent, int]]:
    """The canonical form and numbering of a DRS compiled to boxes over the
    indices of refs, the referents in uid order: the search itself.

    Both start from lo, the sort partition of refs (_firsts of their sorts:
    groups before individuals), which a tree that can tie (see Box) refines
    by colour (_ranks).  Where that leaves every referent its own cell, the
    partition is the numbering.  Otherwise the tree is walked from there,
    building its shape as it goes, unless the search would branch: then its
    form is the top box's _shape under a numbering within the final
    partition of the search (_Labelling.run) from the same partition.  Any
    two numberings within a final partition differ by an automorphism,
    which keeps each number's sort and so the display names.
    """
    if not top.forced:
        lo = _ranks(lo, top)
        if len(set(lo)) == len(lo):  # discrete: no step can change it, so it numbers
            return _shape(top, lo), dict(zip(refs, lo))
    walked = list(lo)
    try:
        return _walk(walked, top), dict(zip(refs, _complete(walked)))
    except _Tie:
        nu = _complete(_Labelling(top).run(lo))
        return _shape(top, nu), dict(zip(refs, nu))


def _shape(box: Box, nu: list[int]) -> tuple:
    """The box's shape under the numbering nu (index -> number), each part
    sorted."""
    universe, preds, mems, dups = box.lists
    return (tuple(sorted([nu[a] for a in universe])),
            tuple(sorted([(rel, tuple([nu[a] for a in args])) for rel, args in preds])),
            tuple(sorted([tuple([nu[a] for a in args]) for _, args in mems])),
            tuple(sorted([(rel, _shape(res, nu), _shape(scope, nu))
                          for rel, res, scope in dups])))


class Box:
    """A DRS box over referent indices.  lists[phase] holds its distinct
    items in the order the search tries them: 0 the universe, 1 the
    predicates (rel, args) sorted, 2 the memberships (None, (element,
    group)) sorted, 3 the duplexes (rel, res, scope) by rel, those of one
    rel in the order given.  The constructor sorts the lists it is given in
    place.  flat: no list holds two items of one rel (memberships all have
    rel None); forced: the box and every nested box are flat, so no search
    over the tree can tie."""

    __slots__ = ("lists", "key", "flat", "forced")

    def __init__(self, universe: tuple[int, ...], preds: list[tuple], mems: list[tuple],
                 dups: list[tuple]):
        for items in (preds, mems):
            if len(items) > 1:
                items.sort()
        if len(dups) > 1:
            dups.sort(key=itemgetter(0))
        self.lists = (universe, preds, mems, dups)
        self.key = None
        self.flat = (len(mems) < 2 and len({rel for rel, _ in preds}) == len(preds)
                     and len({t[0] for t in dups}) == len(dups))
        self.forced = self.flat and all(res.forced and scope.forced for _, res, scope in dups)


class _Tie(Exception):
    """Raised by the walk where the search would branch."""


def _walk(lo: list[int], box: Box) -> tuple:
    """The shape of the box as the search from lo emits it while it does not
    branch, lo changing as the search's would: refine the universe, take
    the items of each list rel by rel, then the duplexes in rel order,
    restrictor before scope (see the module docstring).  Raises _Tie where
    two duplexes share a rel, and _taken where two items tie."""
    universe, preds, mems, dups = box.lists
    if box.flat:  # one item per rel: each is taken as it comes
        return (_refine(lo, universe),
                tuple([(rel, _numbered(lo, args)) for rel, args in preds]),
                tuple([_numbered(lo, args) for _, args in mems]),
                tuple([(rel, _walk(lo, res), _walk(lo, scope)) for rel, res, scope in dups]))
    if len({t[0] for t in dups}) < len(dups):
        raise _Tie
    return (_refine(lo, universe),
            _taken(lo, preds),
            tuple([args for _, args in _taken(lo, mems)]),
            tuple([(rel, _walk(lo, res), _walk(lo, scope)) for rel, res, scope in dups]))


def _taken(lo: list[int], items: list[tuple]) -> tuple:
    """The (rel, numbers) of the items of a predicate or membership list in
    the order the search takes them: rel by rel, those of one rel by least
    token, each numbered as it is taken.  As each item taken is less than
    the rest, they come sorted.  Raises _Tie where two items of one rel tie
    for the least token."""
    out = []
    for rel, group in groupby(items, itemgetter(0)):
        rest = [args for _, args in group]
        while rest:
            tokens = [_greedy(lo, args) for args in rest]
            least = min(tokens)
            if tokens.count(least) > 1:
                raise _Tie
            out.append((rel, _numbered(lo, rest.pop(tokens.index(least)))))
    return tuple(out)


def _numbered(lo: list[int], args: tuple[int, ...]) -> tuple[int, ...]:
    """The least numbers of args under lo, then given to them: one step of
    the walk."""
    got = _greedy(lo, args)
    _individualize(lo, args)
    return got


def _compile(d: DRS) -> tuple[list[DiscourseReferent], Box]:
    """The referents in uid order and the DRS as boxes over their indices."""
    found: set[DiscourseReferent] = set()
    _collect_referents(d, found)
    refs = sorted(found, key=attrgetter("uid"))
    return refs, _indexed(d, {r: i for i, r in enumerate(refs)}.__getitem__)


def _collect_referents(drs: DRS, found: set[DiscourseReferent]) -> None:
    found.update(drs.referents)
    for _, args in drs.predicates:
        found.update(args)
    for pair in drs.memberships:
        found.update(pair)
    for x in drs.duplexes:
        _collect_referents(x.res, found)
        _collect_referents(x.scope, found)


def _indexed(drs: DRS, num) -> Box:
    """The DRS as a box over the indices num gives its referents."""
    return Box(tuple(map(num, drs.referents)),
               [(rel, tuple(map(num, args))) for rel, args in drs.predicates],
               [(None, (num(e), num(g))) for e, g in drs.memberships],
               [(x.rel, _indexed(x.res, num), _indexed(x.scope, num)) for x in drs.duplexes])


def _key(box: Box, tau) -> tuple:
    """The box with each index a renamed tau[a], as a value: two boxes are
    equal under renamings exactly when their keys are."""
    universe, preds, mems, dups = box.lists
    return (frozenset(tau[a] for a in universe), _items_key(preds, tau), _items_key(mems, tau),
            frozenset((rel, _key(res, tau), _key(scope, tau)) for rel, res, scope in dups))


def _items_key(items, tau) -> frozenset:
    return frozenset((rel, tuple(tau[a] for a in args)) for rel, args in items)


def box_key(box: Box) -> tuple:
    """_key of the box with no index renamed, kept on the box: two boxes
    over one list of referents are equal as DRSs exactly when their keys
    are."""
    if box.key is None:
        universe, preds, mems, dups = box.lists
        box.key = (frozenset(universe), frozenset(preds), frozenset(mems),
                   frozenset([(rel, box_key(res), box_key(scope)) for rel, res, scope in dups]))
    return box.key


# A search entry is (lo, stack).  A stack frame is (box, phase, rem, queue,
# rest): phase indexes box.lists, the list being emitted; rem the positions
# of its items not yet taken; queue tokens still owed by items taken as a
# group; rest the frames below.

def _greedy(lo: list[int], args: tuple[int, ...]) -> tuple[int, ...]:
    """The least numbers args can take, in order, under partition lo."""
    if len(args) == 1:
        return (lo[args[0]],)
    got: dict[int, int] = {}
    taken: dict[int, int] = {}
    for a in args:
        if a not in got:
            s = lo[a]
            k = taken.get(s, 0)
            got[a] = s + k
            taken[s] = k + 1
    return tuple(got[a] for a in args)


def _individualize(lo: list[int], args: tuple[int, ...]) -> None:
    """Give each referent of args the first number of its cell."""
    for a in args:
        s = lo[a]
        if lo.count(s) > 1:
            for j, t in enumerate(lo):
                if t == s and j != a:
                    lo[j] = s + 1


def _refine(lo: list[int], front) -> tuple[int, ...]:
    """Move the referents in front to the front of their cells; their numbers."""
    if not front:
        return ()
    count: dict[int, int] = {}
    for a in front:
        s = lo[a]
        count[s] = count.get(s, 0) + 1
    for j, s in enumerate(lo):
        if s in count and j not in front:
            lo[j] = s + count[s]
    out: list[int] = []
    for s in sorted(count):
        out.extend(range(s, s + count[s]))
    return tuple(out)


def _complete(lo: list[int]) -> list[int]:
    """A numbering within the partition lo: each cell in index order."""
    taken: dict[int, int] = {}
    out = []
    for s in lo:
        k = taken.get(s, 0)
        out.append(s + k)
        taken[s] = k + 1
    return out


def _least(lo: list[int], box: Box, phase: int, rem: tuple) -> list[tuple]:
    """The tied least next items of the phase, as [(token, position)]."""
    items = box.lists[phase]
    rel = items[rem[0]][0]  # rem is in rel order
    if phase == 3:
        return [((1, rel), i) for i in rem if items[i][0] == rel]
    best, out = None, []
    for i in rem:
        if items[i][0] != rel:
            break
        tok = (1, (rel, _greedy(lo, items[i][1])))
        if best is None or tok < best:
            best, out = tok, [(tok, i)]
        elif tok == best:
            out.append((tok, i))
    return out


def _group(lo: list[int], box: Box, phase: int, rem: tuple,
           ties: list[tuple]) -> Optional[list[int]]:
    """The referents the tied items would number, if their order is free.

    It is free when each tied item has exactly one referent in a cell of
    several, all in one cell, and no other item left in the list (of the
    same rel) touches that cell: then every order gives the same tokens, and
    all the choice decides is which referent takes which number of the cell,
    which the partition can leave open.
    """
    if phase == 3:
        return None
    items = box.lists[phase]
    size: dict[int, int] = {}
    for s in lo:
        size[s] = size.get(s, 0) + 1
    free = []
    for _, i in ties:
        open_ = {a for a in items[i][1] if size[lo[a]] > 1}
        if len(open_) != 1:
            return None
        free.append(open_.pop())
    cell = lo[free[0]]
    tied = {i for _, i in ties}
    rel = items[ties[0][1]][0]
    for i in rem:
        if items[i][0] != rel:
            break
        if i not in tied and any(lo[a] == cell for a in items[i][1]):
            return None
    return free


def _take(lo: list[int], stack: tuple, i: int) -> tuple:
    """The stack after taking item i of the current phase; lo changes."""
    box, phase, rem, _, rest = stack
    rem = rem[1:] if rem[0] == i else tuple(j for j in rem if j != i)
    if phase == 3:
        _, res, scope = box.lists[3][i]
        return (res, 0, (), (), (scope, 0, (), (), (box, 3, rem, (), rest)))
    _individualize(lo, box.lists[phase][i][1])
    return (box, phase, rem, (), rest)


def _take_group(lo: list[int], stack: tuple, ties: list[tuple], free: list[int]) -> tuple:
    """The stack after taking every tied item at once, owing the tokens of
    all but the first; lo changes."""
    box, phase, rem, _, rest = stack
    tied = {i for _, i in ties}
    first = lo[free[0]]
    _refine(lo, free)
    rel, body = ties[0][0][1]
    queue = tuple((1, (rel, tuple(v + k if v == first else v for v in body)))
                  for k in range(1, len(free)))
    return (box, phase, tuple(j for j in rem if j not in tied), queue, rest)


def _close(box: Box, phase: int, rest: Optional[tuple]) -> Optional[tuple]:
    """The stack after the current phase's list has ended."""
    if phase == 3:
        return rest
    return (box, phase + 1, tuple(range(len(box.lists[phase + 1]))), (), rest)


def _next(lo: list[int], stack: tuple) -> tuple:
    """The entry's next token: (token, stack after it, None) when the token
    is forced, with lo changed in place, or (token, stack, positions) when
    several items tie for it, with lo and stack unchanged: taking any one of
    the tied positions (_take) emits it."""
    box, phase, rem, queue, rest = stack
    if phase == 0:
        return _refine(lo, box.lists[0]), _close(box, 0, rest), None
    if queue:
        return queue[0], (box, phase, rem, queue[1:], rest), None
    if not rem:
        return _END, _close(box, phase, rest), None
    ties = _least(lo, box, phase, rem)
    if len(ties) == 1:
        return ties[0][0], _take(lo, stack, ties[0][1]), None
    free = _group(lo, box, phase, rem, ties)
    if free is None:
        return ties[0][0], stack, [i for _, i in ties]
    return ties[0][0], _take_group(lo, stack, ties, free), None


class _Labelling:
    """The canonical-numbering search over one DRS."""

    def __init__(self, top: Box):
        self.top = top
        self.automorphic: dict[tuple, bool] = {}

    def run(self, lo: list[int]) -> list[int]:
        """The least-shape search from partition lo: a final partition, any
        numbering within which gives the least shape that keeps lo.

        A lone entry runs on in place to its next tie.  Several entries step
        in lockstep, and only those that emit the least token stay.  An
        entry at a tie splits into one child per tied item, each on its own
        copy of the partition, and the children are pruned (prune).
        """
        frontier = [(list(lo), (self.top, 0, (), (), None))]
        while True:
            if len(frontier) == 1:
                lo, stack = frontier[0]
                ties = None
                while ties is None:
                    if stack is None:
                        return lo
                    _, stack, ties = _next(lo, stack)
                stepped = [(lo, stack, ties)]
            else:
                best = None
                for lo, stack in frontier:
                    token, stack, ties = _next(lo, stack)
                    if best is None or token < best:
                        best, stepped = token, [(lo, stack, ties)]
                    elif token == best:
                        stepped.append((lo, stack, ties))
                if stepped[0][1] is None:
                    return stepped[0][0]
            children = []
            for lo, stack, ties in stepped:
                if ties is None:
                    children.append((lo, stack))
                    continue
                for i in ties:
                    child = list(lo)
                    children.append((child, _take(child, stack, i)))
            frontier = self.prune(children) if len(children) > 1 else children

    def prune(self, frontier: list[tuple]) -> list[tuple]:
        """Drop each entry that the map of a kept entry's partition onto its
        own, cell by cell, shows to be an automorphic image of that entry.
        Each entry's cells are listed once per prune."""
        kept: list[tuple] = []  # (entry, its cells)
        for e in frontier:
            cells = _cells(e[0])
            if not any(self.maps_onto(_partition_map(k_cells, cells, len(e[0])), k, e)
                       for k, k_cells in kept):
                kept.append((e, cells))
        return [e for e, _ in kept]

    def maps_onto(self, tau: Optional[tuple], e1: tuple, e2: tuple) -> bool:
        """Whether tau (index -> index) is an automorphism taking e1 to e2."""
        if tau is None:
            return False
        (_, st1), (_, st2) = e1, e2
        if tau not in self.automorphic:
            self.automorphic[tau] = _key(self.top, tau) == box_key(self.top)
        if not self.automorphic[tau]:
            return False
        while st1 is not None and st2 is not None:
            b1, p1, rem1, q1, st1 = st1
            b2, p2, rem2, q2, st2 = st2
            if p1 != p2 or q1 != q2 or len(rem1) != len(rem2):
                return False
            if b1 is not self.top and _key(b1, tau) != box_key(b2):
                return False
            if p1 == 0:
                continue
            if p1 == 3:
                a = {(rel, _key(res, tau), _key(scope, tau))
                     for rel, res, scope in (b1.lists[3][i] for i in rem1)}
                b = {(rel, box_key(res), box_key(scope))
                     for rel, res, scope in (b2.lists[3][i] for i in rem2)}
            else:
                a = _items_key([b1.lists[p1][i] for i in rem1], tau)
                b = {b2.lists[p1][i] for i in rem2}
            if a != b:
                return False
        return st1 is st2


def _cells(lo: list[int]) -> dict[int, list[int]]:
    """The cells of partition lo: each cell's referents, ascending."""
    cells: dict[int, list[int]] = {}
    for r, s in enumerate(lo):
        cells.setdefault(s, []).append(r)
    return cells


def _partition_map(cells1: dict[int, list[int]], cells2: dict[int, list[int]],
                   n: int) -> Optional[tuple]:
    """A map taking the n referents' partition with cells1 cell by cell onto
    the one with cells2 that moves only the referents the two cells do not
    share; None if the cells differ in size.  Each referent of a cell goes
    to a referent of the same cell (lo1[r] == lo2[tau[r]] for every r), so
    maps_onto need not check that."""
    tau = list(range(n))
    for s, m1 in cells1.items():
        m2 = cells2.get(s, ())
        if m1 == m2:
            continue  # the cell moves nothing
        if len(m2) != len(m1):
            return None
        for x, y in zip([r for r in m1 if r not in m2], [r for r in m2 if r not in m1]):
            tau[x] = y
    return tuple(tau)


def _ranks(firsts: list[int], top: Box) -> list[int]:
    """The partition lo that colour refinement gives the referents of top,
    from their first colours, the sort partition.  Each round adds the
    sorted occurrences, each (box path as (rel, 0 res / 1 scope) steps,
    kind, rel, argument position, the arguments' colours), until no colour
    splits.  A colour is how many referents have a lesser one: a value
    renaming keeps."""
    occurrences: list[list[tuple]] = [[] for _ in firsts]
    _occurrences(top, (), occurrences)
    lo, new = None, firsts
    while new != lo and len(set(new)) < len(new):  # a colour split, and one can split
        lo, get = new, new.__getitem__
        new = _firsts([(lo[r], tuple(sorted([(place, tuple(map(get, args)))
                                             for place, args in occ])))
                       for r, occ in enumerate(occurrences)])
    return new


def _occurrences(box: Box, path: tuple, occurrences: list[list[tuple]]) -> None:
    """Add to occurrences[a] each place referent a occurs in box and the
    boxes in it, as _ranks colours them."""
    universe, preds, mems, dups = box.lists
    for a in universe:
        occurrences[a].append(((path, 0), ()))
    for kind, items in ((1, preds), (2, mems)):
        for rel, args in items:
            for j, a in enumerate(args):
                occurrences[a].append(((path, kind, rel, j), args))
    for rel, res, scope in dups:
        _occurrences(res, path + ((rel, 0),), occurrences)
        _occurrences(scope, path + ((rel, 1),), occurrences)


def _firsts(values: list) -> list[int]:
    """For each value, how many of the values are less."""
    order = sorted(values)
    return [bisect_left(order, v) for v in values]
