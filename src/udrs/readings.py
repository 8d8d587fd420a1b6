"""Enumerate the fully scoped DRSs consistent with a UDRS.

Every duplex condition contributes a restrictor box and a scope box; a
scoping is a placement, a dict that puts each label in one of those boxes
or the top box such that every subordination constraint holds
geometrically: weak means inside or equal, strict means properly inside,
identity means the same box.  Conditional constraints are evaluated per
candidate: a candidate that realizes the antecedent's strict relation must
also satisfy the consequent.  This layer only places labels: a UDRS whose
plurals still wait on disambiguation (plurals.pl_dis_*) has no readings.

The search backtracks over label classes with the constraints compiled to
small ints.  Each check is filed under the class whose placement completes
it, the derived relations of the Closure narrow every class's candidate
boxes before the search, and once the box forest is fixed "inside or
equal" is one lookup in a box's ancestor set.

Every scoping places the same conditions over the same referents, so a
UDRS is compiled once for all its readings: a private table grounds each
condition's arguments, numbers the referents in uid order and puts each
condition over those numbers.  Per scoping, one pass over the labels
buckets the conditions by box and builds both the DRS and its boxes over
referent indices, the input of the labelling search.

Two scoped DRSs are the same reading when a renaming of referents maps one
onto the other.  canonical_form is the least shape over all numberings of
the referents, and render_drs and drs_to_json name referents x<i>/X<i> by
the numbering that gives it; both come from one labelling search, in
canonical.py, that each DRS value runs at most once, on the boxes its
table built or, for a DRS made by hand, on boxes compiled from the DRS.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from operator import attrgetter
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional

from .core import (
    CONDITIONAL, GROUP, QUANT_NAMES, STRICT, WEAK, Arg, CycleError,
    DiscourseReferent, Label, Membership, Predicate, Quantifier, ReferentIntro,
    UDRS, UDRSError, closure, condition_args, strict,
)

if TYPE_CHECKING:
    from .canonical import Box

TOP_BOX = ("top",)


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
    """All label placements consistent with the constraint set.

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
    """enumerate_scopings one at a time, each built when it is asked for."""
    mentioned = sorted(u.labels(), key=lambda l: l.uid)
    duplexes = sorted((cond for cond in u.conds if isinstance(cond, Quantifier)),
                      key=lambda d: d.label.uid)
    # Every placement puts a duplex label in the parent box of both its boxes,
    # so the closure may assume it: that only derives more necessary relations.
    nesting = [strict(d.label, b) for d in duplexes for b in (d.res, d.scope)]
    try:
        c = closure(u.subord.union(nesting))
    except CycleError:
        try:
            closure(u.subord)
        except CycleError as e:
            raise InconsistentConstraints(str(e)) from None
        return  # no box forest can nest the duplexes as the constraints ask

    # Label classes become ints in uid order of their first label; positions
    # are ints too: 0 is TOP_BOX, 2i+1 and 2i+2 the res and scope of duplex i.
    index: dict[Label, int] = {}
    label_class = [index.setdefault(c.representative(l), len(index)) for l in mentioned]
    class_of = dict(zip(mentioned, label_class))
    n = len(index)
    rel = [[0] * n for _ in range(n)]  # rel[a][b]: 1 if a >= b, 2 if a > b
    for a, b, is_strict in c.derived_pairs():
        rel[index[a]][index[b]] = 2 if is_strict else 1

    boxes: list[tuple] = [TOP_BOX]
    pin: list[Optional[int]] = [None] * n
    for l, k in zip(mentioned, label_class):
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
    # constraints, plus the conditionals the closure cannot discharge.  Each
    # is filed under the search depth whose assignment completes it: 0 for
    # pinned and host classes (checked once per box forest), j for the j-th
    # rest class.
    checks = [(STRICT if rel[a][b] == 2 else WEAK, a, b, a, a)
              for a in range(n) for b in range(n) if rel[a][b]]
    for sc in u.subord:
        if sc.kind == CONDITIONAL:
            a, b = class_of[sc.left], class_of[sc.right]
            x, y = (class_of[l] for l in sc.antecedent)
            if a != b and x != y and not rel[a][b]:
                checks.append((CONDITIONAL, a, b, x, y))
    depth = [0] * n
    for j, k in enumerate(rest_vars, 1):
        depth[k] = j
    filed: list[list[tuple]] = [[] for _ in range(len(rest_vars) + 1)]
    for check in checks:
        filed[max(depth[k] for k in check[1:])].append(check)

    candidates = _closure_candidates(rel, pin, len(boxes))
    owned = {k: {b for i, h in enumerate(hosts) if h == k for b in (2 * i + 1, 2 * i + 2)}
             for k in host_vars}
    # parent[p]: the box that box p sits in, once its duplex label is placed.
    # Pinned hosts cannot nest a box in itself: the closure above would have
    # found the strict cycle that nesting implies.
    parent: list[Optional[int]] = [None] + [pin[k] for k in hosts for _ in (0, 1)]
    pos: list[Optional[int]] = list(pin)

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

        yield from place_rest(0)

    yield from place_hosts(0)


def _all_hold(checks: list[tuple], pos: list, anc: list[set[int]]) -> bool:
    """Whether every compiled check holds under positions pos and forest anc."""
    for kind, a, b, x, y in checks:
        if kind == CONDITIONAL and (pos[x] == pos[y] or pos[x] not in anc[pos[y]]):
            continue  # antecedent not realized
        if pos[a] not in anc[pos[b]] or (kind == STRICT and pos[a] == pos[b]):
            return False
    return True


def _closure_candidates(rel: list[list[int]], pin: list[Optional[int]],
                        n_boxes: int) -> list[list[int]]:
    """Per class, the positions its derived relations to pinned classes allow.

    What holds in every placement: TOP_BOX contains every other box, box p
    lies in box q when q's class is derived >= p's, the res and scope boxes
    of a duplex are disjoint, and so is everything inside each of them.
    """
    box_class = [None] * n_boxes
    for k, p in enumerate(pin):
        if p:
            box_class[p] = k

    def within(p: int, q: int) -> bool:
        return q == 0 or p == q or (p != 0 and rel[box_class[q]][box_class[p]] > 0)

    def contains(p: int, q: int) -> bool:  # properly
        return q != 0 and (p == 0 or rel[box_class[p]][box_class[q]] == 2)

    siblings = [(r, r + 1) for r in range(1, n_boxes, 2)]
    boxes = range(n_boxes)
    # nest[p][q]: can box p lie in or equal box q, and properly?
    nest = [[(False, False)] * n_boxes for _ in boxes]
    for p in boxes:
        for q in boxes:
            apart = contains(p, q) or any(
                within(p, r) and within(q, s) or within(p, s) and within(q, r)
                for r, s in siblings)
            nest[p][q] = (not apart, not apart and p != q)

    out = []
    for v in range(len(pin)):
        dominated = any(row[v] == 2 for row in rel)
        fits = []
        for p in boxes:
            if p == 0 and dominated:
                continue  # something must properly contain it
            if all((not rel[w][v] or nest[p][q][rel[w][v] - 1])
                   and (not rel[v][w] or nest[q][p][rel[v][w] - 1])
                   for w, q in enumerate(pin) if q is not None):
                fits.append(p)
        out.append(fits)
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
        groups, leaves, new_box = self.groups, self.leaves, self.new_box

        def box(pos: tuple) -> tuple[DRS, Box, int]:
            """The box at pos, as a DRS and over indices; how many
            conditions it holds, nested ones too."""
            ids = tuple(at.get(pos, ()))
            if ids in leaves:
                return leaves[ids]
            placed, refs, preds, members, quants = 0, [], [], [], []
            universe, ipreds, imembers = [], [], []
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
                res, ires, in_res = box(res_pos)
                scope, iscope, in_scope = box(scope_pos)
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
            built = drs, new_box(tuple(universe), ipreds, imembers, idups), placed
            if not quants and pos != TOP_BOX:  # the top DRS is the reading's own
                leaves[ids] = built
            return built

        drs, top, placed = box(TOP_BOX)
        if placed != self.size:
            raise UDRSError(self.misplaced(placement))
        drs._compiled = (self.refs, top)
        return drs

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
    """Reading identity: the least shape over all renamings of referents.

    Two DRSs have the same canonical form exactly when a renaming of
    referents maps one onto the other.
    """
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
    """The DRS of each scoping whose referent occurrences are all bound."""
    table = _Table(u)
    for placement in _scopings(u):
        drs = table.build(placement)
        if not check_binding(drs):
            yield drs


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

    def walk(box: DRS, accessible: frozenset[DiscourseReferent]) -> None:
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
            walk(dup.res, here)
            walk(dup.scope, here | dup.res.referents)

    walk(d, frozenset())
    return violations


# --- Rendering -------------------------------------------------------------------

def _display_names(d: DRS) -> dict[DiscourseReferent, str]:
    """x<i> or X<i> (groups), i the referent's canonical number."""
    return {r: (f"X{i}" if r.sort == GROUP else f"x{i}")
            for r, i in d.labelling[1].items()}


def _named(d: DRS, names: dict[DiscourseReferent, str]) -> tuple:
    """The box with display names, each part sorted as it is printed:
    (universe, predicates, memberships, duplexes as (rel, res, scope))."""
    return (
        tuple(sorted(names[r] for r in d.referents)),
        tuple(sorted((rel, tuple(names[a] for a in args))
                     for rel, args in d.predicates)),
        tuple(sorted((names[e], names[g]) for e, g in d.memberships)),
        tuple(sorted((dup.rel, _named(dup.res, names), _named(dup.scope, names))
                     for dup in d.duplexes)),
    )


def render_drs(d: DRS) -> str:
    return "\n".join(_box_lines(_named(d, _display_names(d))))


def _box_lines(box: tuple) -> list[str]:
    universe, preds, members, duplexes = box
    header = " ".join(universe)
    body: list[list[str]] = [[f"{rel}({', '.join(args)})"] for rel, args in preds]
    body += [[f"{e} in {g}"] for e, g in members]
    for rel, res, scope in duplexes:
        connector = f"={QUANT_NAMES.get(rel, rel)}=>"
        body.append(_join_duplex(_box_lines(res), connector, _box_lines(scope)))

    width = max([len(header)] + [len(l) for block in body for l in block] + [1])
    top = "+" + "-" * (width + 2) + "+"
    out = [top, f"| {header.ljust(width)} |", "+" + "-" * (width + 2) + "+"]
    for block in body:
        for line in block:
            out.append(f"| {line.ljust(width)} |")
    out.append(top)
    return out


def _join_duplex(res: list[str], connector: str, scope: list[str]) -> list[str]:
    height = max(len(res), len(scope))
    res += [" " * len(res[0])] * (height - len(res))
    scope += [" " * len(scope[0])] * (height - len(scope))
    mid = height // 2
    lines = []
    for i in range(height):
        joint = connector if i == mid else " " * len(connector)
        lines.append(f"{res[i]} {joint} {scope[i]}")
    return lines


def drs_to_json(d: DRS) -> dict:
    def box(b: tuple) -> dict:
        universe, preds, members, duplexes = b
        conds: list[dict] = [{"type": "pred", "rel": rel, "args": list(args)}
                             for rel, args in preds]
        conds += [{"type": "member", "element": e, "group": g} for e, g in members]
        conds += [{"type": "duplex", "rel": QUANT_NAMES.get(rel, rel),
                   "res": box(res), "scope": box(scope)} for rel, res, scope in duplexes]
        return {"referents": list(universe), "conditions": conds}

    return box(_named(d, _display_names(d)))
