"""Reading identity: the canonical numbering of a scoped DRS's referents.

Two scoped DRSs are the same reading when a renaming of referents maps one
onto the other.  Of all numberings of the referents by 0..n-1, the
canonical ones are those under which _shape is least; that least shape is
the reading's identity (readings.canonical_form), and the first canonical
numbering names the referents when a reading is printed.

The search builds the least shape element by element in the order _shape
compares them: a box's universe, predicates, memberships, then duplexes
(restrictor, then scope).  Numbers are committed through an ordered
partition lo: lo[i] is the first number of the cell referent i sits in, and
it takes one number of that cell.  A universe moves its referents to the
front of their cells; the least next item gives each of its referents the
first number of its cell.  The search branches only on tied items, and
drops a branch when an automorphism of the DRS maps a kept branch onto it:
individualization and automorphism pruning after McKay & Piperno,
"Practical graph isomorphism, II" (2014), cut down to DRS trees.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from typing import TYPE_CHECKING, Optional

from .core import GROUP, DiscourseReferent

if TYPE_CHECKING:
    from .readings import DRS, DuplexCondition

_END = (0,)  # ends a list; less than every (1, element) token


def _all_referents(d: DRS) -> set[DiscourseReferent]:
    out = set(d.referents)
    for rel, args in d.predicates:
        out.update(args)
    for e, g in d.memberships:
        out.update((e, g))
    for dup in d.duplexes:
        out |= _all_referents(dup.res) | _all_referents(dup.scope)
    return out


def _shape(d: DRS, naming: dict[DiscourseReferent, int]) -> tuple:
    return (
        tuple(sorted(naming[r] for r in d.referents)),
        tuple(sorted((rel, tuple(naming[a] for a in args))
                     for rel, args in d.predicates)),
        tuple(sorted((naming[e], naming[g]) for e, g in d.memberships)),
        tuple(sorted((dup.rel, _shape(dup.res, naming), _shape(dup.scope, naming))
                     for dup in d.duplexes)),
    )


def canonical_labelling(d: DRS) -> tuple[tuple, dict[DiscourseReferent, int]]:
    """The canonical form and the numbering that gives it.

    Of the numberings with the least shape, the one returned is the first in
    lexicographic order of the referents' numbers taken in uid order.  Any
    two of them differ by an automorphism, which changes the display names
    only when it swaps a group referent with an individual one, so only
    then is the first one searched for.
    """
    search = _Labelling(d)
    refs = search.refs
    nu = _complete(search.run([0] * len(refs)))
    if len({r.sort for r in refs}) == 2:
        col = search.colours([0] * len(refs))
        group_colours = {c for c, r in zip(col, refs) if r.sort == GROUP}
        if any(c in group_colours for c, r in zip(col, refs) if r.sort != GROUP):
            nu = search.first_numbering(nu, col)
    naming = dict(zip(refs, nu))
    return _shape(d, naming), naming


class _Box:
    """A DRS box with referents as indices and its items in a fixed order."""

    __slots__ = ("drs", "universe", "preds", "mems", "dups", "low")

    def __init__(self, drs: DRS, index: dict[DiscourseReferent, int]):
        self.drs = drs
        self.universe = frozenset(index[r] for r in drs.referents)
        # items as indices, each paired with the item itself
        self.preds = sorted(((rel, tuple(index[a] for a in args)), (rel, args))
                            for rel, args in drs.predicates)
        self.mems = sorted(((index[e], index[g]), (e, g)) for e, g in drs.memberships)
        dups = [(x.rel, _Box(x.res, index), _Box(x.scope, index), x) for x in drs.duplexes]
        dups.sort(key=lambda t: (t[0], t[1].low, t[2].low))  # sets which tie is tried first
        self.dups = dups
        self.low = min([*self.universe, *(a for p in self.preds for a in p[0][1]),
                        *(a for m in self.mems for a in m[0]),
                        *(min(t[1].low, t[2].low) for t in dups)], default=-1)

    def args(self, phase: int, i: int) -> tuple[int, ...]:
        return self.preds[i][0][1] if phase == 1 else self.mems[i][0]


# A search entry is (lo, stack).  A stack frame is (box, phase, rem, queue,
# rest): phase 0 = universe next, 1 = predicates, 2 = memberships,
# 3 = duplexes; rem the positions of the phase's items not yet taken; queue
# tokens still owed by items taken as a group; rest the frames below.

def _greedy(lo: list[int], args: tuple[int, ...]) -> tuple[int, ...]:
    """The least numbers args can take, in order, under partition lo."""
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
        for j, t in enumerate(lo):
            if t == s and j != a:
                lo[j] = s + 1


def _refine(lo: list[int], front) -> tuple[int, ...]:
    """Move the referents in front to the front of their cells; their numbers."""
    count: dict[int, int] = {}
    for a in front:
        count[lo[a]] = count.get(lo[a], 0) + 1
    for j, s in enumerate(lo):
        if s in count and j not in front:
            lo[j] = s + count[s]
    return tuple(sorted(v for s, c in count.items() for v in range(s, s + c)))


def _complete(lo: list[int]) -> list[int]:
    """A numbering within the partition lo: each cell in index order."""
    taken: dict[int, int] = {}
    out = []
    for s in lo:
        k = taken.get(s, 0)
        out.append(s + k)
        taken[s] = k + 1
    return out


def _least(lo: list[int], box: _Box, phase: int, rem: tuple) -> list[tuple]:
    """The tied least next items of the phase, as [(token, position)]."""
    if phase == 3:
        rel = box.dups[rem[0]][0]  # rem is in rel order
        return [((1, rel), i) for i in rem if box.dups[i][0] == rel]
    best, out = None, []
    rel = box.preds[rem[0]][0][0] if phase == 1 else None
    for i in rem:
        if phase == 1:
            if box.preds[i][0][0] != rel:
                break
            tok = (1, (rel, _greedy(lo, box.preds[i][0][1])))
        else:
            tok = (1, _greedy(lo, box.mems[i][0]))
        if best is None or tok < best:
            best, out = tok, [(tok, i)]
        elif tok == best:
            out.append((tok, i))
    return out


def _group(lo: list[int], box: _Box, phase: int, rem: tuple,
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
    size: dict[int, int] = {}
    for s in lo:
        size[s] = size.get(s, 0) + 1
    free = []
    for _, i in ties:
        open_ = {a for a in box.args(phase, i) if size[lo[a]] > 1}
        if len(open_) != 1:
            return None
        free.append(open_.pop())
    cell = lo[free[0]]
    tied = {i for _, i in ties}
    rel = box.preds[ties[0][1]][0][0] if phase == 1 else None
    for i in rem:
        if phase == 1 and box.preds[i][0][0] != rel:
            break
        if i not in tied and any(lo[a] == cell for a in box.args(phase, i)):
            return None
    return free


def _take(lo: list[int], stack: tuple, i: int) -> tuple:
    """The stack after taking item i of the current phase; lo changes."""
    box, phase, rem, _, rest = stack
    rem = tuple(j for j in rem if j != i)
    if phase == 3:
        _, res, scope, _ = box.dups[i]
        return (res, 0, (), (), (scope, 0, (), (), (box, 3, rem, (), rest)))
    _individualize(lo, box.args(phase, i))
    return (box, phase, rem, (), rest)


def _take_group(lo: list[int], stack: tuple, ties: list[tuple], free: list[int]) -> tuple:
    """The stack after taking every tied item at once; lo changes."""
    box, phase, rem, _, rest = stack
    tied = {i for _, i in ties}
    first = lo[free[0]]
    _refine(lo, free)
    body = ties[0][0][1]
    if phase == 1:
        queue = tuple((1, (body[0], tuple(v + k if v == first else v for v in body[1])))
                      for k in range(1, len(free)))
    else:
        queue = tuple((1, tuple(v + k if v == first else v for v in body))
                      for k in range(1, len(free)))
    return (box, phase, tuple(j for j in rem if j not in tied), queue, rest)


def _close(box: _Box, phase: int, rest: Optional[tuple]) -> Optional[tuple]:
    """The stack after the current phase's list has ended."""
    if phase == 1:
        return (box, 2, tuple(range(len(box.mems))), (), rest)
    if phase == 2:
        return (box, 3, tuple(range(len(box.dups))), (), rest)
    return rest


def _advance(lo: list[int], stack: Optional[tuple]) -> tuple:
    """Run one entry on in place while its next element is forced.

    Returns the stack and the tied options at the first real choice, or
    (None, []) at the end.
    """
    while stack is not None:
        box, phase, rem, queue, rest = stack
        if phase == 0:
            _refine(lo, box.universe)
            stack = (box, 1, tuple(range(len(box.preds))), (), rest)
        elif queue:
            stack = (box, phase, rem, (), rest)
        elif not rem:
            stack = _close(box, phase, rest)
        else:
            ties = _least(lo, box, phase, rem)
            if len(ties) == 1:
                stack = _take(lo, stack, ties[0][1])
                continue
            free = _group(lo, box, phase, rem, ties)
            if free is None:
                return stack, ties
            stack = _take_group(lo, stack, ties, free)[:3] + ((), rest)
    return None, []


def _step(frontier: list[tuple]) -> list[tuple]:
    """Advance every entry by one token; keep the entries with the least."""
    best, chosen = None, []
    for lo, stack in frontier:
        box, phase, rem, queue, rest = stack
        if phase == 0:
            new = list(lo)
            opts = [(_refine(new, box.universe),
                     (new, (box, 1, tuple(range(len(box.preds))), (), rest)))]
        elif queue:
            opts = [(queue[0], (lo, (box, phase, rem, queue[1:], rest)))]
        elif not rem:
            opts = [(_END, (lo, _close(box, phase, rest)))]
        else:
            ties = _least(lo, box, phase, rem)
            free = _group(lo, box, phase, rem, ties) if len(ties) > 1 else None
            if free is None:
                opts = [(tok, (lo, stack, i)) for tok, i in ties]
            else:
                new = list(lo)
                opts = [(ties[0][0], (new, _take_group(new, stack, ties, free)))]
        for tok, e in opts:
            if best is None or tok < best:
                best, chosen = tok, [e]
            elif tok == best:
                chosen.append(e)
    out = []
    for e in chosen:
        if len(e) == 3:  # an item still to take, on a copy of the partition
            lo = list(e[0])
            e = (lo, _take(lo, e[1], e[2]))
        out.append(e)
    return out


def _rename(d: DRS, m: dict) -> DRS:
    return replace(d, referents=frozenset(m[r] for r in d.referents),
                   predicates=frozenset((rel, tuple(m[a] for a in args))
                                        for rel, args in d.predicates),
                   memberships=frozenset((m[e], m[g]) for e, g in d.memberships),
                   duplexes=frozenset(_rename_duplex(x, m) for x in d.duplexes))


def _rename_duplex(x: DuplexCondition, m: dict) -> DuplexCondition:
    return replace(x, res=_rename(x.res, m), scope=_rename(x.scope, m))


class _Labelling:
    """The canonical-numbering search over one DRS."""

    def __init__(self, d: DRS):
        self.refs = sorted(_all_referents(d), key=lambda r: r.uid)
        self.top = _Box(d, {r: i for i, r in enumerate(self.refs)})
        self.automorphic: dict[tuple, bool] = {}
        self._occurrences: Optional[list[list[tuple]]] = None

    def run(self, lo: list[int]) -> list[int]:
        """The least-shape search from partition lo; a final partition."""
        frontier = [(list(lo), (self.top, 0, (), (), None))]
        while True:
            if len(frontier) == 1:
                lo, stack = frontier[0]
                stack, ties = _advance(lo, stack)
                if stack is None:
                    return lo
                children = []
                for _, i in ties:
                    child = list(lo)
                    children.append((child, _take(child, stack, i)))
                branched = True
            else:
                children = _step(frontier)
                if children[0][1] is None:
                    return children[0][0]
                branched = len(children) > len(frontier)
            frontier = self.prune(children, branched) if len(children) > 1 else children

    def prune(self, frontier: list[tuple], branched: bool) -> list[tuple]:
        """Drop each entry that an automorphism maps a kept entry onto.

        The first candidate maps one partition onto the other cell by cell.
        Where a tie has just split an entry three or more ways, each entry
        is also run to a leaf, taking at each tie the item whose referents
        have the least refined colours; two leaves of equal shape give the
        second candidate.
        """
        kept: list[tuple] = []
        leaves: list[tuple] = []
        dive = branched and len(frontier) > 2
        for e in frontier:
            if any(self.maps_onto(_partition_map(k[0], e[0]), k, e) for k in kept):
                continue
            if dive:
                nu, shape = self.dive(e)
                inverse = {v: i for i, v in enumerate(nu)}
                if any(s == shape and self.maps_onto(tuple(inverse[v] for v in n), k, e)
                       for k, (n, s) in zip(kept, leaves)):
                    continue
                leaves.append((nu, shape))
            kept.append(e)
        return kept

    def maps_onto(self, tau: Optional[tuple], e1: tuple, e2: tuple) -> bool:
        """Whether tau (index -> index) is an automorphism taking e1 to e2."""
        if tau is None:
            return False
        (lo1, st1), (lo2, st2) = e1, e2
        if any(lo1[r] != lo2[t] for r, t in enumerate(tau)):
            return False
        refs = self.refs
        m = {refs[r]: refs[t] for r, t in enumerate(tau)}
        if tau not in self.automorphic:
            self.automorphic[tau] = _rename(self.top.drs, m) == self.top.drs
        if not self.automorphic[tau]:
            return False
        while st1 is not None and st2 is not None:
            b1, p1, rem1, q1, st1 = st1
            b2, p2, rem2, q2, st2 = st2
            if p1 != p2 or q1 != q2 or len(rem1) != len(rem2):
                return False
            if b1 is not self.top and _rename(b1.drs, m) != b2.drs:
                return False
            if p1 == 1:
                a = {(b1.preds[i][1][0], tuple(m[x] for x in b1.preds[i][1][1])) for i in rem1}
                b = {b2.preds[i][1] for i in rem2}
            elif p1 == 2:
                a = {(m[b1.mems[i][1][0]], m[b1.mems[i][1][1]]) for i in rem1}
                b = {b2.mems[i][1] for i in rem2}
            elif p1 == 3:
                a = {_rename_duplex(b1.dups[i][3], m) for i in rem1}
                b = {b2.dups[i][3] for i in rem2}
            else:
                continue
            if a != b:
                return False
        return st1 is st2

    def dive(self, e: tuple) -> tuple[list[int], tuple]:
        """Run entry e to a numbering, breaking ties by refined colours."""
        lo, stack = list(e[0]), e[1]
        while True:
            stack, ties = _advance(lo, stack)
            if stack is None:
                break
            col = self.colours(lo)
            box, phase = stack[0], stack[1]
            if phase == 3:
                def key(i):
                    return _box_colour(box.dups[i][1], col) + _box_colour(box.dups[i][2], col)
            else:
                def key(i):
                    return tuple(col[a] for a in box.args(phase, i))
            stack = _take(lo, stack, min((i for _, i in ties), key=key))
        nu = _complete(lo)
        return nu, _shape(self.top.drs, dict(zip(self.refs, nu)))

    def occurrences(self) -> list[list[tuple]]:
        """Per referent: (place, args) of each use, where place numbers the
        box path, kind, rel and argument position."""
        if self._occurrences is None:
            self._occurrences = [[] for _ in self.refs]
            _collect_occurrences(self.top, (), {}, self._occurrences)
        return self._occurrences

    def colours(self, lo: list[int]) -> list[int]:
        """Colour refinement of the partition lo by where referents occur
        and with whom; an automorphism keeping lo keeps colours.  Colours
        are hashes of multisets: a collision only merges two colours."""
        occurrences = self.occurrences()
        col, count = lo, len(set(lo))
        while True:
            new = [hash((col[r], frozenset(Counter(
                (place, tuple(col[a] for a in args)) for place, args in occ).items())))
                for r, occ in enumerate(occurrences)]
            if len(set(new)) <= count:
                return new
            col, count = new, len(set(new))

    def first_numbering(self, nu: list[int], col: list[int]) -> list[int]:
        """The least, in uid order, of the numberings nu composed with an
        automorphism.

        Greedily picks each referent's image t: some automorphism extends
        the images picked so far by r -> t exactly when fixing the sources
        first and fixing the images first give searches of equal shape.
        """
        n = len(nu)

        def shape_fixing(order: list[int]) -> tuple:
            lo = [len(order)] * n
            for j, r in enumerate(order):
                lo[r] = j
            return _shape(self.top.drs, dict(zip(self.refs, _complete(self.run(lo)))))

        images: list[int] = []
        for i in range(n):
            candidates = sorted((t for t in range(n) if t not in images and col[t] == col[i]),
                                key=lambda t: nu[t])
            image = candidates[-1]  # the last one left needs no test
            if len(candidates) > 1:
                want = shape_fixing(list(range(i + 1)))
                image = next((t for t in candidates[:-1]
                              if shape_fixing(images + [t]) == want), image)
            images.append(image)
        return [nu[t] for t in images]


def _partition_map(lo1: list[int], lo2: list[int]) -> Optional[tuple]:
    """A map taking partition lo1 cell by cell onto lo2 that moves only the
    referents the two cells do not share; None if the cells differ in size."""
    cells1: dict[int, list[int]] = {}
    cells2: dict[int, list[int]] = {}
    for r, s in enumerate(lo1):
        cells1.setdefault(s, []).append(r)
    for r, s in enumerate(lo2):
        cells2.setdefault(s, []).append(r)
    tau = list(range(len(lo1)))
    for s, m1 in cells1.items():
        m2 = cells2.get(s, ())
        if len(m2) != len(m1):
            return None
        for x, y in zip([r for r in m1 if r not in m2], [r for r in m2 if r not in m1]):
            tau[x] = y
    return tuple(tau)


def _collect_occurrences(box: _Box, path: tuple, places: dict, out: list) -> None:
    def use(a: int, place: tuple, args: tuple) -> None:
        out[a].append((places.setdefault(place, len(places)), args))

    for a in box.universe:
        use(a, (path, 0), ())
    for (rel, args), _ in box.preds:
        for j, a in enumerate(args):
            use(a, (path, 1, rel, j), args)
    for args, _ in box.mems:
        for j, a in enumerate(args):
            use(a, (path, 2, j), args)
    for rel, res, scope, _ in box.dups:
        _collect_occurrences(res, path + ((rel, 0),), places, out)
        _collect_occurrences(scope, path + ((rel, 1),), places, out)


def _box_colour(box: _Box, col: list[int]) -> tuple:
    return (tuple(sorted(col[a] for a in box.universe)),
            tuple(sorted((rel, tuple(col[a] for a in args)) for (rel, args), _ in box.preds)),
            tuple(sorted(tuple(col[a] for a in args) for args, _ in box.mems)),
            tuple(sorted((rel,) + _box_colour(res, col) + _box_colour(scope, col)
                         for rel, res, scope, _ in box.dups)))
