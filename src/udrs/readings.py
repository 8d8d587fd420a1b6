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

Two scoped DRSs are the same reading when a renaming of referents maps one
onto the other.  canonical_form is the least shape over all numberings of
the referents, and render_drs and drs_to_json name referents x<i>/X<i> by
the numbering that gives it; both come from one labelling search, in
canonical.py, that each DRS value runs at most once.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, NamedTuple, Optional

from .core import (
    CONDITIONAL, GROUP, QUANT_NAMES, STRICT, WEAK, Arg, CycleError,
    DiscourseReferent, Label, Membership, Predicate, Quantifier, ReferentIntro,
    UDRS, UDRSError, closure, strict,
)

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
        """(shape, numbering) from canonical_labelling, found once per DRS.
        canonical loads here, on first use (see the package docstring)."""
        from .canonical import canonical_labelling
        return canonical_labelling(self)


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
    conditions whose label the placement puts there."""
    placed: dict[tuple, list] = {}  # box -> its conditions
    for cond in u.conds:
        placed.setdefault(placement[cond.label], []).append(cond)

    def box(pos: tuple) -> DRS:
        refs, preds, members, subs = set(), set(), set(), set()
        for cond in placed.get(pos, ()):
            if isinstance(cond, ReferentIntro):
                refs.add(cond.dref)
            elif isinstance(cond, Predicate):
                preds.add((cond.rel, tuple(_ground(u, a) for a in cond.args)))
            elif isinstance(cond, Membership):
                members.add((_ground(u, cond.element), _ground(u, cond.group)))
            elif isinstance(cond, Quantifier):
                subs.add(DuplexCondition(
                    cond.rel,
                    box(("res", cond.label.uid)),
                    box(("scope", cond.label.uid))))
        return DRS(frozenset(refs), frozenset(preds), frozenset(members),
                   frozenset(subs))

    return box(TOP_BOX)


def _ground(u: UDRS, arg: Arg) -> DiscourseReferent:
    ref = u.resolve(arg)
    if not isinstance(ref, DiscourseReferent):
        raise UnresolvedSlot(f"argument {arg!r} waits on {ref!r}")
    return ref


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
    pending = u.pending_slots()
    if pending:
        raise UnresolvedSlot(
            f"{len(pending)} unresolved argument slot(s); disambiguate first")
    for placement in _scopings(u):
        drs = build_drs(u, placement)
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
