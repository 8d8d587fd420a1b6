"""Enumerate the fully scoped DRSs consistent with a UDRS.

Every duplex condition contributes a restrictor box and a scope box; a
scoping is a placement, a dict that puts each label in one of those boxes
or the top box such that every subordination constraint holds
geometrically: weak means inside or equal, strict means properly inside,
identity means the same box.  Conditional constraints are evaluated per
candidate: a candidate that realizes the antecedent's strict relation must
also satisfy the consequent.  This layer only places labels: a UDRS whose
plurals still wait on disambiguation (plurals.pl_dis_*) has no readings.

The search backtracks over label classes, numbered as the Closure numbers
them, and is compiled from the closure's weak and strict bit rows: one
check per set bit, filed under the class whose placement completes it, and
per class the candidate boxes, a bit mask narrowed by the rows of the
classes pinned to boxes.  It is a generator, as are its two recursive
placers, closures over the search's state whose cells it clears when it
ends or is closed: a nested function that reaches itself through its
closure is a reference cycle until then.  A parsed UDRS already holds the
constraints that put each duplex label above its two boxes, so its closure
is the one check_udrs built a moment before (core.closure keeps the last it
built).  Once the box forest is fixed "inside or equal" is one lookup in a
box's ancestor set.  Accessibility (Kamp & Reyle, From Discourse to Logic,
1993) is one more kind of check, kept only where the closure does not imply
it, so no scoping is built only to be refused; check_binding is the same
test on a finished DRS.

Every scoping places the same conditions over the same referents, so a
UDRS is compiled once for all its readings: a private table grounds each
condition's arguments, numbers the referents in uid order and puts each
condition over those numbers.  Per scoping, one pass over the labels
buckets the conditions by box and builds both the DRS and its boxes over
referent indices, the input of the labelling search.

Two scoped DRSs are the same reading when a renaming of referents that
keeps their sorts maps one onto the other.  canonical_form is the least
shape over the numberings of the referents that canonical.py tries, and
render_drs and drs_to_json name referents x<i>/X<i> by the numbering that
gives it; both come from one labelling search there, which each DRS value
runs at most once, on the boxes its table built or, for a DRS made by hand,
on boxes compiled from the DRS.  The printers print the shape it returns,
in number order.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from operator import attrgetter
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional

from .core import (
    CONDITIONAL, GROUP, QUANT_NAMES, STRICT, WEAK, Arg, CycleError,
    DiscourseReferent, Label, Membership, Predicate, Quantifier, ReferentIntro,
    UDRS, UDRSError, closure, condition_args, strict, weak,
)

if TYPE_CHECKING:
    from .canonical import Box

TOP_BOX = ("top",)
_ACCESS = "access"  # the kind of a compiled accessibility check


class UnresolvedSlot(UDRSError):
    pass


class InconsistentConstraints(UDRSError):
    pass


class _DRS(NamedTuple):
    referents: frozenset[DiscourseReferent]
    predicates: frozenset[tuple[str, tuple[DiscourseReferent, ...]]]
    memberships: frozenset[tuple[DiscourseReferent, DiscourseReferent]]
    duplexes: frozenset["DuplexCondition"]


class DRS(_DRS):
    """One box: a universe of referents plus ground and duplex conditions."""

    @cached_property
    def labelling(self) -> tuple[tuple, dict[DiscourseReferent, int]]:
        """(shape, numbering) of the canonical labelling, found once per DRS.

        A DRS that build_drs made carries its boxes over referent indices
        until then: the search takes them and lets them go.  Any other DRS
        is compiled here first (canonical_labelling).  canonical loads here
        or with the first _Table, on first use (see the package docstring)."""
        from .canonical import canonical_labelling, label_boxes
        compiled = self.__dict__.pop("_compiled", None)
        if compiled is None:
            return canonical_labelling(self)
        return label_boxes(*compiled)


class DuplexCondition(NamedTuple):
    rel: str
    res: DRS
    scope: DRS


def enumerate_scopings(u: UDRS) -> list[dict[Label, tuple]]:
    """All label placements consistent with the constraint set under which
    every referent occurrence is accessible (check_binding finds nothing).

    A placement maps every label the UDRS mentions to its box: TOP_BOX, or
    ("res", uid) or ("scope", uid) of the duplex whose label has that uid.
    Where it puts the duplex labels fixes the box forest.

    The variables are the label classes the closure identifies, minus those
    pinned to a box: first the classes of duplex labels, which fix the box
    forest, then the rest in uid order.  Each tries TOP_BOX, then the res and
    scope box of each duplex in uid order, so the scopings come out in that
    lexicographic order; narrowing only ever drops candidates.
    """
    return list(_scopings(u))


def _scopings(u: UDRS) -> Iterator[dict[Label, tuple]]:
    """enumerate_scopings one at a time, each built when it is asked for.

    It closes u.subord with the nesting constraints added, or u.subord
    itself where it holds them all, as a parsed UDRS does: then the closure
    is the one check_udrs built, if nothing was closed since."""
    duplexes = sorted((cond for cond in u.conds if isinstance(cond, Quantifier)),
                      key=lambda d: d.label.uid)
    # Every placement puts a duplex label in the parent box of both its boxes,
    # so the closure may assume it: that only derives more necessary relations.
    nesting = [strict(d.label, b) for d in duplexes for b in (d.res, d.scope)]
    subord = u.subord if u.subord.issuperset(nesting) else u.subord.union(nesting)
    try:
        c = closure(subord)
    except CycleError:
        try:
            closure(u.subord)
        except CycleError as e:
            raise InconsistentConstraints(str(e)) from None
        return  # no box forest can nest the duplexes as the constraints ask
    loose = [l for l in (*u.ls, *(cond.label for cond in u.conds)) if l not in c.domain]
    if loose:  # a label in no constraint is a class of its own, numbered in uid order
        c = closure(c.constraints.union(weak(l, l) for l in loose))

    # Label classes are ints, as the closure numbers them: in uid order of
    # their least labels.  Positions are ints too: 0 is TOP_BOX, 2i+1 and
    # 2i+2 the res and scope of duplex i.
    class_of = c.classes  # every mentioned label, in uid order
    weak_rows, strict_rows = c.weak_rows, c.strict_rows
    n = len(weak_rows)
    boxes: list[tuple] = [TOP_BOX]
    pin: list[Optional[int]] = [None] * n
    for l, k in class_of.items():
        if l.is_top:
            pin[k] = 0
    for i, d in enumerate(duplexes):
        boxes.extend((("res", d.label.uid), ("scope", d.label.uid)))
        for label, p in ((d.res, 2 * i + 1), (d.scope, 2 * i + 2)):
            k = class_of[label]
            if pin[k] not in (None, p):
                return  # one class pinned to two distinct boxes
            pin[k] = p
    hosts = [class_of[d.label] for d in duplexes]
    host_vars = list(dict.fromkeys(k for k in hosts if pin[k] is None))
    rest_vars = [k for k in range(n) if pin[k] is None and k not in host_vars]

    # Checks (kind, a, b, x, y) ask for a >= b, a conditional only once
    # x > y.  They are every derived relation between two classes, which
    # holds in every scoping and subsumes the weak, strict and identity
    # constraints, plus the conditionals the closure cannot discharge.  A
    # class in TOP_BOX contains every box, so of its relations only the
    # strict ones are checked.  Each check is filed under the search depth
    # whose assignment completes it: 0 for pinned and host classes (checked
    # once per box forest), j for the j-th rest class.
    depth = [0] * n
    for j, k in enumerate(rest_vars, 1):
        depth[k] = j
    filed: list[list[tuple]] = [[] for _ in range(len(rest_vars) + 1)]
    for a, (row, strict_row) in enumerate(zip(weak_rows, strict_rows)):
        row = strict_row if pin[a] == 0 else row ^ 1 << a
        while row:
            low = row & -row
            b = low.bit_length() - 1
            filed[max(depth[a], depth[b])].append(
                (STRICT if strict_row & low else WEAK, a, b, a, a))
            row ^= low
    for sc in u.subord:
        if sc.kind == CONDITIONAL:
            a, b = class_of[sc.left], class_of[sc.right]
            x, y = (class_of[l] for l in sc.antecedent)
            if a != b and x != y and not weak_rows[a] >> b & 1:
                filed[max(depth[a], depth[b], depth[x], depth[y])].append(
                    (CONDITIONAL, a, b, x, y))
    access = _access_checks(u, class_of, weak_rows, pin)
    if access is None:
        return  # a referent introduced nowhere is bound in no scoping
    for check in access:
        filed[max(depth[check[2]], *(depth[i] for i in check[3]))].append(check)

    candidates = _closure_candidates(weak_rows, strict_rows, pin, len(boxes))
    owned = {k: {b for i, h in enumerate(hosts) if h == k for b in (2 * i + 1, 2 * i + 2)}
             for k in host_vars}
    # parent[p]: the box that box p sits in, once its duplex label is placed.
    # Pinned hosts cannot nest a box in itself: the closure above would have
    # found the strict cycle that nesting implies.
    parent: list[Optional[int]] = [None] + [pin[k] for k in hosts for _ in (0, 1)]
    pos: list[Optional[int]] = list(pin)
    mentioned, label_class = list(class_of), list(class_of.values())

    def place_hosts(i: int) -> Iterator[dict[Label, tuple]]:
        if i == len(host_vars):
            yield from place_rest_in_forest()
            return
        k = host_vars[i]
        mine = owned[k]
        for p in candidates[k]:
            q: Optional[int] = p
            while q is not None and q not in mine:
                q = parent[q]
            if q is not None:
                continue  # p lies inside one of k's own boxes
            for b in mine:
                parent[b] = p
            pos[k] = p
            yield from place_hosts(i + 1)
        for b in mine:
            parent[b] = None

    def place_rest_in_forest() -> Iterator[dict[Label, tuple]]:
        anc = []  # anc[p]: p and every box p lies in
        for p in range(len(boxes)):
            chain, q = set(), p
            while q is not None:
                chain.add(q)
                q = parent[q]
            anc.append(chain)
        if not _all_hold(filed[0], pos, anc):
            return

        def place_rest(j: int) -> Iterator[dict[Label, tuple]]:
            if j == len(rest_vars):
                yield dict(zip(mentioned, [boxes[pos[k]] for k in label_class]))
                return
            k, tests = rest_vars[j], filed[j + 1]
            for p in candidates[k]:
                pos[k] = p
                if _all_hold(tests, pos, anc):
                    yield from place_rest(j + 1)

        try:
            yield from place_rest(0)
        finally:  # place_rest reaches itself through this cell: a cycle until cleared
            place_rest = None

    try:
        yield from place_hosts(0)
    finally:  # place_hosts reaches itself through this cell: a cycle until cleared
        place_hosts = None


def _access_checks(u: UDRS, class_of: dict[Label, int], weak_rows: list[int],
                   pin: list[Optional[int]]) -> Optional[list[tuple]]:
    """The accessibility checks, or None when a used referent has no intro.

    A referent used at class v is bound when one of its intro classes i
    sits at pos(v) or above it, or in the res box of a duplex whose scope
    box is pos(v) or above it.  The closure implies that when bit v is in
    the weak row of i, or of the class of the scope box beside i's pinned
    res box; any other use gets a check (_ACCESS, i, v, intros, None).
    """
    intros: dict[DiscourseReferent, set[int]] = {}
    uses = set()
    for cond in u.conds:
        if isinstance(cond, ReferentIntro):
            intros.setdefault(cond.dref, set()).add(class_of[cond.label])
        else:
            uses.update((class_of[cond.label], u.resolve(a)) for a in condition_args(cond))
    box_class = {p: k for k, p in enumerate(pin) if p}
    checks = []
    for v, ref in uses:
        if not isinstance(ref, DiscourseReferent):
            continue  # a pending slot: the reading layer refuses this UDRS
        at = intros.get(ref)
        if at is None:
            return None
        for i in at:
            s = box_class[pin[i] + 1] if pin[i] and pin[i] & 1 else i
            if (weak_rows[i] | weak_rows[s]) >> v & 1:
                break
        else:
            at = tuple(at)
            checks.append((_ACCESS, at[0], v, at, None))
    return checks


def _all_hold(checks: list[tuple], pos: list, anc: list[set[int]]) -> bool:
    """Whether every compiled check holds under positions pos and forest anc."""
    for kind, a, b, x, y in checks:
        if kind == CONDITIONAL and (pos[x] == pos[y] or pos[x] not in anc[pos[y]]):
            continue  # antecedent not realized
        if pos[a] not in anc[pos[b]] or (kind == STRICT and pos[a] == pos[b]):
            if kind != _ACCESS or not any(
                    pos[i] in anc[pos[b]] or pos[i] & 1 and pos[i] + 1 in anc[pos[b]]
                    for i in x):
                return False
    return True


def _closure_candidates(weak_rows: list[int], strict_rows: list[int],
                        pin: list[Optional[int]], n_boxes: int) -> list[list[int]]:
    """Per unpinned class, the positions its derived relations to pinned
    classes allow ([] for a pinned class).

    What holds in every placement: TOP_BOX contains every other box, box p
    lies in box q when q's class is derived >= p's, the res and scope boxes
    of a duplex are disjoint, and so is everything inside each of them.
    Sets of positions are bit masks, bit p for box p.
    """
    box_class = [0] * n_boxes  # TOP_BOX's entry is never read
    for k, p in enumerate(pin):
        if p:
            box_class[p] = k
    inner = range(1, n_boxes)
    full = (1 << n_boxes) - 1
    # within[q]: the boxes that lie in or equal box q in every placement
    within = [full] + [sum(1 << p for p in inner if weak_rows[box_class[q]] >> box_class[p] & 1)
                       for q in inner]
    # may_lie_in[q] and may_hold[q]: the boxes that box q may lie in or
    # equal, and that may lie in or equal box q.  Neither holds a box
    # inside the sibling of a box that holds q; a box q lies in properly
    # cannot lie in q, and q cannot lie in a box it properly holds.
    may_lie_in, may_hold = [1], [full]
    for q in inner:
        k, apart = box_class[q], 0
        for r in range(1, n_boxes, 2):
            if within[r] >> q & 1:
                apart |= within[r + 1]
            if within[r + 1] >> q & 1:
                apart |= within[r]
        over = 1 | sum(1 << p for p in inner if strict_rows[box_class[p]] >> k & 1)
        under = sum(1 << p for p in inner if strict_rows[k] >> box_class[p] & 1)
        may_lie_in.append(full & ~(apart | under))
        may_hold.append(full & ~(apart | over))
    pinned = [(w, q) for w, q in enumerate(pin) if q is not None]
    dominated = 0
    for row in strict_rows:
        dominated |= row

    out = []
    for v, p in enumerate(pin):
        if p is not None:
            out.append([])
            continue
        fits = full ^ 1 if dominated >> v & 1 else full  # what is dominated is not on top
        for w, q in pinned:
            if strict_rows[w] >> v & 1:
                fits &= may_hold[q] & ~(1 << q)
            elif weak_rows[w] >> v & 1:
                fits &= may_hold[q]
            if strict_rows[v] >> w & 1:
                fits &= may_lie_in[q] & ~(1 << q)
            elif weak_rows[v] >> w & 1:
                fits &= may_lie_in[q]
        out.append([p for p in range(n_boxes) if fits >> p & 1])
    return out


def build_drs(u: UDRS, placement: dict[Label, tuple]) -> DRS:
    """Materialize the box tree a placement describes: each box holds the
    conditions whose label the placement puts there.  A placement that
    leaves a condition out of that tree raises UDRSError naming a label."""
    return _table(u).build(placement)


@lru_cache(maxsize=1)
def _table(u: UDRS) -> _Table:
    """The table of the last UDRS build_drs was given, kept until another
    comes: a caller building one UDRS's scopings one at a time, as the
    benchmark's traced run does, compiles that UDRS once."""
    return _Table(u)


class _Group(NamedTuple):
    """The conditions of one label, ground and over referent indices; a
    duplex is (rel, res box, scope box)."""
    size: int
    referents: list
    predicates: list
    memberships: list
    duplexes: list
    universe: list
    indexed_predicates: list
    indexed_memberships: list


class _Table:
    """A UDRS compiled once for all its scopings.

    Every scoping places the same conditions over the same referents, so a
    condition's ground form, and its form over referent indices (refs, the
    referents in uid order, as canonical numbers them), are the same in all
    of them.  The conditions are grouped by label, in uid order, and a
    placement moves whole groups.  A box without duplexes is the same
    wherever its groups go, so each is built once.
    """

    def __init__(self, u: UDRS):
        ground: dict[Arg, DiscourseReferent] = {}
        unresolved = 0
        for cond in u.conds:
            for arg in condition_args(cond):
                ref = u.resolve(arg)
                if isinstance(ref, DiscourseReferent):
                    ground[arg] = ref
                else:
                    unresolved += 1
        if unresolved:
            raise UnresolvedSlot(
                f"{unresolved} unresolved argument slot(s); disambiguate first")
        intros = {c.dref for c in u.conds if isinstance(c, ReferentIntro)}
        self.refs = sorted(intros.union(ground.values()), key=attrgetter("uid"))
        self.size = len(u.conds)
        by_label: dict[Label, list] = {}
        for cond in sorted(u.conds, key=lambda c: c.label.uid):
            by_label.setdefault(cond.label, []).append(cond)
        num = {r: i for i, r in enumerate(self.refs)}
        self.labels = list(by_label)
        self.groups = [_group(conds, ground, num) for conds in by_label.values()]
        self.leaves: dict[tuple[int, ...], tuple[DRS, Box, int]] = {}
        from .canonical import Box  # canonical loads with the first table
        self.new_box = Box

    def build(self, placement: dict[Label, tuple]) -> DRS:
        """The placement's DRS, carrying its boxes over referent indices for
        DRS.labelling to search."""
        at: dict[tuple, list[int]] = {}
        for i, label in enumerate(self.labels):
            pos = placement.get(label)
            if pos in at:
                at[pos].append(i)
            else:
                at[pos] = [i]
        drs, top, placed = self._box(TOP_BOX, at)
        if placed != self.size:
            raise UDRSError(self.misplaced(placement))
        drs._compiled = (self.refs, top)
        return drs

    def _box(self, pos: tuple, at: dict[tuple, list[int]]) -> tuple[DRS, Box, int]:
        """The box at pos, as a DRS and over indices; how many
        conditions it holds, nested ones too.  at lists the groups the
        placement puts in each box."""
        ids = tuple(at.get(pos, ()))
        leaves = self.leaves
        if ids in leaves:
            return leaves[ids]
        placed, refs, preds, members, quants = 0, [], [], [], []
        universe, ipreds, imembers = [], [], []
        groups = self.groups
        for i in ids:
            group = groups[i]
            placed += group.size
            refs += group.referents
            preds += group.predicates
            members += group.memberships
            quants += group.duplexes
            universe += group.universe
            ipreds += group.indexed_predicates
            imembers += group.indexed_memberships
        dups, idups = [], []
        for rel, res_pos, scope_pos in quants:
            res, ires, in_res = self._box(res_pos, at)
            scope, iscope, in_scope = self._box(scope_pos, at)
            placed += in_res + in_scope
            dups.append(DuplexCondition(rel, res, scope))
            idups.append((rel, ires, iscope))
        drs = DRS(frozenset(refs), frozenset(preds), frozenset(members), frozenset(dups))
        # what two groups repeat, the sets keep once, and so must the box
        if len(drs.referents) < len(universe):
            universe = set(universe)
        if len(drs.predicates) < len(ipreds):
            ipreds = list(set(ipreds))
        if len(drs.memberships) < len(imembers):
            imembers = list(set(imembers))
        if len(drs.duplexes) < len(idups):
            idups = list(dict(zip(dups, idups)).values())
        built = drs, self.new_box(tuple(universe), ipreds, imembers, idups), placed
        if not quants and pos != TOP_BOX:  # the top DRS is the reading's own
            leaves[ids] = built
        return built

    def misplaced(self, placement: dict[Label, tuple]) -> str:
        """Which label a placement leaves out of the box tree, and how."""
        owner = {pos: label for label, group in zip(self.labels, self.groups)
                 for _, *boxes in group.duplexes for pos in boxes}
        for label in self.labels:
            if label not in placement:
                return f"placement puts {label} in no box"
        for label in self.labels:
            pos, seen = placement[label], {label}
            while pos != TOP_BOX:
                up = owner.get(pos)
                if up is None:
                    return f"placement puts {label} in {pos}, a box no duplex has"
                if up in seen:
                    return f"placement puts {up} inside one of its own boxes"
                seen.add(up)
                pos = placement[up]
        return "placement leaves conditions out of the box tree"


def _group(conds: list, ground: dict[Arg, DiscourseReferent],
           num: dict[DiscourseReferent, int]) -> _Group:
    refs, preds, members, dups = [], [], [], []
    for c in conds:
        if isinstance(c, ReferentIntro):
            refs.append(c.dref)
        elif isinstance(c, Predicate):
            preds.append((c.rel, tuple(map(ground.__getitem__, c.args))))
        elif isinstance(c, Membership):
            members.append((ground[c.element], ground[c.group]))
        elif isinstance(c, Quantifier):
            dups.append((c.rel, ("res", c.label.uid), ("scope", c.label.uid)))
    return _Group(len(conds), refs, preds, members, dups, [num[r] for r in refs],
                  [(rel, tuple(map(num.__getitem__, args))) for rel, args in preds],
                  [(None, (num[e], num[g])) for e, g in members])


# --- Reading identity ----------------------------------------------------------

def canonical_form(d: DRS) -> tuple:
    """Reading identity: the least shape over the numberings of referents
    that canonical.py tries, all of which give groups the lesser numbers.
    A renaming that keeps sorts keeps it, and equal forms mean some
    renaming maps one DRS onto the other, one that keeps sorts when the two
    have as many groups, as the readings of one UDRS do."""
    return d.labelling[0]


# --- Public operations ----------------------------------------------------------

def enumerate_readings(u: UDRS) -> list[DRS]:
    """Every fully scoped DRS the UDRS stands for, one per reading.

    Of the licensed DRSs with the same canonical form the first is kept, so
    readings come in the order of their first scoping.  A UDRS with pending
    argument slots has no readings yet and raises UnresolvedSlot: each
    plural must be disambiguated first (plurals.pl_dis_*).
    """
    readings: dict[tuple, DRS] = {}
    for drs in _licensed(u):
        readings.setdefault(canonical_form(drs), drs)
    return list(readings.values())


def _licensed(u: UDRS) -> Iterator[DRS]:
    """The DRS of each scoping; the search has checked that every referent
    occurrence is bound."""
    table = _Table(u)
    for placement in _scopings(u):
        yield table.build(placement)


def count_readings(u: UDRS) -> int:
    return len(enumerate_readings(u))


def check_binding(d: DRS) -> list[str]:
    """Verify every referent occurrence is accessible from its box.

    Accessible means: declared in the same box, an ancestor box, or, for a
    duplex's scope, the duplex's restrictor.  Empty list means ok.  Each
    box's messages come in order of its predicates by (rel, uids), then of
    its memberships by uids.
    """
    violations: list[str] = []
    _unbound(d, frozenset(), violations)
    return violations


def _unbound(box: DRS, accessible: frozenset[DiscourseReferent],
             violations: list[str]) -> None:
    """check_binding's messages for box and the boxes in it, added to
    violations; accessible holds the referents declared above box."""
    here = accessible | box.referents
    bad = [p for p in box.predicates if not here.issuperset(p[1])]
    if bad:
        for rel, args in sorted(bad, key=lambda p: (p[0], [a.uid for a in p[1]])):
            violations.extend(f"{rel}: referent {a} not accessible"
                              for a in args if a not in here)
    bad = [m for m in box.memberships if not here.issuperset(m)]
    if bad:
        for m in sorted(bad, key=lambda m: (m[0].uid, m[1].uid)):
            violations.extend(f"membership: referent {a} not accessible"
                              for a in m if a not in here)
    for dup in box.duplexes:
        _unbound(dup.res, here, violations)
        _unbound(dup.scope, here | dup.res.referents, violations)


# --- Rendering -------------------------------------------------------------------

def _printed(d: DRS) -> tuple[tuple, list[str]]:
    """The reading's shape and the display name of each canonical number:
    x<i>, or X<i> for a group.  The shape's parts are in number order, and
    so is what the printers print."""
    shape, numbering = d.labelling
    names = [""] * len(numbering)
    for r, i in numbering.items():
        names[i] = f"X{i}" if r.sort == GROUP else f"x{i}"
    return shape, names


def render_drs(d: DRS) -> str:
    return "\n".join(_lines(*_printed(d)))


def _lines(box: tuple, names: list[str]) -> list[str]:
    universe, preds, members, duplexes = box
    name = names.__getitem__
    body = []  # plain loops: a comprehension costs a call, and these lists are short
    for rel, args in preds:
        body.append(f"{rel}({', '.join(map(name, args))})")
    for e, g in members:
        body.append(f"{name(e)} in {name(g)}")
    for rel, res, scope in duplexes:
        body += _join_duplex(_lines(res, names), f"={QUANT_NAMES.get(rel, rel)}=>",
                             _lines(scope, names))
    header = " ".join(map(name, universe))
    width = max(len(header), 1, *map(len, body))
    rule = "+" + "-" * (width + 2) + "+"
    out = [rule, f"| {header.ljust(width)} |", rule]
    for line in body:
        out.append(f"| {line.ljust(width)} |")
    out.append(rule)
    return out


def _join_duplex(res: list[str], connector: str, scope: list[str]) -> list[str]:
    """The two boxes' lines side by side, the connector on the middle line;
    the shorter side is padded in a new list."""
    height = max(len(res), len(scope))
    if len(res) < height:
        res = res + [" " * len(res[0])] * (height - len(res))
    elif len(scope) < height:
        scope = scope + [" " * len(scope[0])] * (height - len(scope))
    blank, mid = " " * len(connector), height // 2
    lines = [f"{r} {blank} {s}" for r, s in zip(res, scope)]
    lines[mid] = f"{res[mid]} {connector} {scope[mid]}"
    return lines


def drs_to_json(d: DRS) -> dict:
    return _json_box(*_printed(d))


def _json_box(b: tuple, names: list[str]) -> dict:
    universe, preds, members, duplexes = b
    conds: list[dict] = [{"type": "pred", "rel": rel, "args": [names[a] for a in args]}
                         for rel, args in preds]
    conds += [{"type": "member", "element": names[e], "group": names[g]}
              for e, g in members]
    conds += [{"type": "duplex", "rel": QUANT_NAMES.get(rel, rel),
               "res": _json_box(res, names), "scope": _json_box(scope, names)}
              for rel, res, scope in duplexes]
    return {"referents": [names[a] for a in universe], "conditions": conds}
