"""Reading identity: the canonical numbering of a scoped DRS's referents.

Two scoped DRSs are the same reading when a renaming of referents maps one
onto the other.  Under a numbering of the referents by 0..n-1 a box's shape
is (universe, predicates, memberships, duplexes), each part a sorted tuple
of numbered items and a duplex (rel, restrictor shape, scope shape).  The
canonical numberings are those under which the shape is least; that least
shape is the reading's identity (readings.canonical_form), and the first
canonical numbering names the referents when a reading is printed.

The search runs on boxes over referent indices (Box), the referents
numbered in uid order.  Two compilers feed it: _compile turns a DRS into
such boxes (canonical_labelling), and the reading layer's per-UDRS table
builds them with each scoping's DRS and hands them to label_boxes.  The
search emits the least shape token by token in the order shapes compare: a
box's universe, predicates, memberships, then duplexes (restrictor, then
scope), each list closed by _END.  Numbers are committed through an ordered
partition lo: lo[i] is the first number of the cell referent i sits in, and
it takes one number of that cell.  A universe moves its referents to the
front of their cells; the least next item gives each of its referents the
first number of its cell.  The search branches only on tied items, and
drops a branch when an automorphism of the DRS maps a kept branch onto it:
individualization and automorphism pruning after McKay & Piperno,
"Practical graph isomorphism, II" (2014), cut down to DRS trees.  Every
branch still alive has emitted the same tokens, so that one stream, folded
back into nested tuples, is the least shape.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Optional

from .core import GROUP, DiscourseReferent

if TYPE_CHECKING:
    from .readings import DRS

_END = (0,)  # ends a list; less than every (1, element) token
_item = itemgetter(1)  # the element of a (1, element) token


def canonical_labelling(d: DRS) -> tuple[tuple, dict[DiscourseReferent, int]]:
    """The canonical form and the numbering that gives it, for any DRS."""
    return label_boxes(*_compile(d))


def label_boxes(refs: list[DiscourseReferent],
                top: Box) -> tuple[tuple, dict[DiscourseReferent, int]]:
    """The canonical form and numbering of a DRS compiled to boxes over the
    indices of refs, the referents in uid order: the search itself.

    Of the numberings with the least shape, the one returned is the first in
    lexicographic order of the referents' numbers taken in uid order.  Any
    two of them differ by an automorphism, which changes the display names
    only when it swaps a group referent with an individual one, so only
    then is the first one searched for.
    """
    search = _Labelling(refs, top)
    lo, tokens = search.run([0] * len(refs))
    nu = _complete(lo)
    if len({r.sort for r in refs}) == 2:
        col = search.colours([0] * len(refs))
        group_colours = {c for c, r in zip(col, refs) if r.sort == GROUP}
        if any(c in group_colours for c, r in zip(col, refs) if r.sort != GROUP):
            nu = search.first_numbering(nu, col)
    return _fold(tokens), dict(zip(refs, nu))


def _fold(tokens: list) -> tuple:
    """The shape a search's token stream spells, as nested tuples."""

    def box(i: int) -> tuple[tuple, int]:
        """The box whose universe token is at i; where its tokens end."""
        j = tokens.index(_END, i + 1)  # closes the predicates
        k = tokens.index(_END, j + 1)  # closes the memberships
        dups, m = [], k + 1
        while tokens[m] != _END:
            res, after = box(m + 1)
            scope, after = box(after)
            dups.append((tokens[m][1], res, scope))
            m = after
        return (tokens[i], tuple(map(_item, tokens[i + 1:j])),
                tuple(t[1][1] for t in tokens[j + 1:k]), tuple(dups)), m + 1

    return box(0)[0]


class Box:
    """A DRS box over referent indices.  lists[phase] holds its distinct
    items in the order the search tries them: 0 the universe, 1 the
    predicates (rel, args) sorted, 2 the memberships (None, (element,
    group)) sorted, 3 the duplexes (rel, res, scope) by rel and _low.  The
    constructor sorts the lists it is given in place."""

    __slots__ = ("lists", "key")

    def __init__(self, universe: tuple[int, ...], preds: list[tuple], mems: list[tuple],
                 dups: list[tuple]):
        for items in (preds, mems):
            if len(items) > 1:
                items.sort()
        if len(dups) > 1:  # the order sets which tie is tried first
            dups.sort(key=lambda t: (t[0], _low(t[1]), _low(t[2])))
        self.lists = (universe, preds, mems, dups)
        self.key = None


def _low(box: Box) -> int:
    """The least index in the box, or -1 where a duplex has an empty box."""
    universe, preds, mems, dups = box.lists
    return min([*universe, *(a for _, args in preds + mems for a in args),
                *(min(_low(res), _low(scope)) for _, res, scope in dups)], default=-1)


def _compile(d: DRS) -> tuple[list[DiscourseReferent], Box]:
    """The referents in uid order and the DRS as boxes over their indices."""
    found: set[DiscourseReferent] = set()

    def collect(drs: DRS) -> None:
        found.update(drs.referents)
        for _, args in drs.predicates:
            found.update(args)
        for pair in drs.memberships:
            found.update(pair)
        for x in drs.duplexes:
            collect(x.res)
            collect(x.scope)

    collect(d)
    refs = sorted(found, key=attrgetter("uid"))
    num = {r: i for i, r in enumerate(refs)}.__getitem__

    def walk(drs: DRS) -> Box:
        return Box(tuple(map(num, drs.referents)),
                   [(rel, tuple(map(num, args))) for rel, args in drs.predicates],
                   [(None, (num(e), num(g))) for e, g in drs.memberships],
                   [(x.rel, walk(x.res), walk(x.scope)) for x in drs.duplexes])

    return refs, walk(d)


def _key(box: Box, tau) -> tuple:
    """The box with each index a renamed tau[a], as a value: two boxes are
    equal under renamings exactly when their keys are."""
    universe, preds, mems, dups = box.lists
    return (frozenset(tau[a] for a in universe), _items_key(preds, tau), _items_key(mems, tau),
            frozenset((rel, _key(res, tau), _key(scope, tau)) for rel, res, scope in dups))


def _items_key(items, tau) -> frozenset:
    return frozenset((rel, tuple(tau[a] for a in args)) for rel, args in items)


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

    def __init__(self, refs: list[DiscourseReferent], top: Box):
        self.refs, self.top = refs, top
        self.identity = range(len(self.refs))
        self.automorphic: dict[tuple, bool] = {}
        self._occurrences: Optional[list[list[tuple]]] = None
        self._colours: dict[tuple, list[int]] = {}
        self._box_colours: dict[tuple, dict[Box, tuple]] = {}

    def run(self, lo: list[int]) -> tuple[list[int], list]:
        """The least-shape search from partition lo: a final partition and
        the tokens of the least shape.

        A lone entry runs on in place to its next tie.  Several entries step
        in lockstep, and only those that emit the least token stay.  An
        entry at a tie splits into one child per tied item, each on its own
        copy of the partition, and the children are pruned.
        """
        tokens: list = []
        frontier = [(list(lo), (self.top, 0, (), (), None))]
        while True:
            if len(frontier) == 1:
                lo, stack = frontier[0]
                ties = None
                while ties is None:
                    if stack is None:
                        return lo, tokens
                    token, stack, ties = _next(lo, stack)
                    tokens.append(token)
                stepped = [(lo, stack, ties)]
            else:
                best = None
                for lo, stack in frontier:
                    token, stack, ties = _next(lo, stack)
                    if best is None or token < best:
                        best, stepped = token, [(lo, stack, ties)]
                    elif token == best:
                        stepped.append((lo, stack, ties))
                tokens.append(best)
                if stepped[0][1] is None:
                    return stepped[0][0], tokens
            children = []
            for lo, stack, ties in stepped:
                if ties is None:
                    children.append((lo, stack))
                    continue
                for i in ties:
                    child = list(lo)
                    children.append((child, _take(child, stack, i)))
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

    def own_key(self, box: Box) -> tuple:
        if box.key is None:
            box.key = _key(box, self.identity)
        return box.key

    def maps_onto(self, tau: Optional[tuple], e1: tuple, e2: tuple) -> bool:
        """Whether tau (index -> index) is an automorphism taking e1 to e2."""
        if tau is None:
            return False
        (lo1, st1), (lo2, st2) = e1, e2
        if any(lo1[r] != lo2[t] for r, t in enumerate(tau)):
            return False
        if tau not in self.automorphic:
            self.automorphic[tau] = _key(self.top, tau) == self.own_key(self.top)
        if not self.automorphic[tau]:
            return False
        while st1 is not None and st2 is not None:
            b1, p1, rem1, q1, st1 = st1
            b2, p2, rem2, q2, st2 = st2
            if p1 != p2 or q1 != q2 or len(rem1) != len(rem2):
                return False
            if b1 is not self.top and _key(b1, tau) != self.own_key(b2):
                return False
            if p1 == 0:
                continue
            if p1 == 3:
                a = {(rel, _key(res, tau), _key(scope, tau))
                     for rel, res, scope in (b1.lists[3][i] for i in rem1)}
                b = {(rel, self.own_key(res), self.own_key(scope))
                     for rel, res, scope in (b2.lists[3][i] for i in rem2)}
            else:
                a = _items_key([b1.lists[p1][i] for i in rem1], tau)
                b = {b2.lists[p1][i] for i in rem2}
            if a != b:
                return False
        return st1 is st2

    def dive(self, e: tuple) -> tuple[list[int], list]:
        """Run entry e to a numbering, taking at each tie the item whose
        referents have the least refined colours; the numbering and the
        tokens emitted on the way."""
        lo, stack = list(e[0]), e[1]
        tokens: list = []
        while stack is not None:
            token, stack, ties = _next(lo, stack)
            tokens.append(token)
            if ties is None:
                continue
            col = self.colours(lo)
            box, phase = stack[0], stack[1]
            items = box.lists[phase]
            if phase == 3:
                memo = self._box_colours.setdefault(tuple(lo), {})

                def key(i):
                    return (_box_colour(items[i][1], col, memo)
                            + _box_colour(items[i][2], col, memo))
            else:
                def key(i):
                    return tuple(col[a] for a in items[i][1])
            stack = _take(lo, stack, min(ties, key=key))
        return _complete(lo), tokens

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
        are hashes of sorted multisets: a collision only merges two colours."""
        key = tuple(lo)
        if key in self._colours:
            return self._colours[key]
        occurrences = self.occurrences()
        col, count = lo, len(set(lo))
        while True:
            get = col.__getitem__
            new = [hash((col[r], tuple(sorted([(place, tuple(map(get, args)))
                                               for place, args in occ]))))
                   for r, occ in enumerate(occurrences)]
            if len(set(new)) <= count:
                self._colours[key] = new
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

        def shape_fixing(order: list[int]) -> list:
            lo = [len(order)] * n
            for j, r in enumerate(order):
                lo[r] = j
            return self.run(lo)[1]

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


def _collect_occurrences(box: Box, path: tuple, places: dict, out: list) -> None:
    def use(a: int, place: tuple, args: tuple) -> None:
        out[a].append((places.setdefault(place, len(places)), args))

    universe, preds, mems, dups = box.lists
    for a in universe:
        use(a, (path, 0), ())
    for phase, items in ((1, preds), (2, mems)):
        for rel, args in items:
            for j, a in enumerate(args):
                use(a, (path, phase, rel, j), args)
    for rel, res, scope in dups:
        _collect_occurrences(res, path + ((rel, 0),), places, out)
        _collect_occurrences(scope, path + ((rel, 1),), places, out)


def _box_colour(box: Box, col: list[int], memo: dict[Box, tuple]) -> tuple:
    """The box's items under col, sorted; memo holds the boxes done under col."""
    c = memo.get(box)
    if c is None:
        universe, preds, mems, dups = box.lists
        c = memo[box] = (
            tuple(sorted(col[a] for a in universe)),
            *(tuple(sorted((rel, tuple(col[a] for a in args)) for rel, args in items))
              for items in (preds, mems)),
            tuple(sorted((rel,) + _box_colour(res, col, memo) + _box_colour(scope, col, memo)
                         for rel, res, scope in dups)))
    return c
