"""The scope search: every label placement consistent with a UDRS.

Every duplex condition contributes a restrictor box and a scope box; a
scoping puts each label in one of those boxes or the top box such that
every subordination constraint holds geometrically: weak means inside or
equal, strict means properly inside, identity means the same box.  A
candidate that realizes a conditional constraint's antecedent must also
satisfy its consequent.  Boxes are positions: 0 the top box, 2i+1 and 2i+2
the restrictor and scope of the i-th duplex in uid order.

The search backtracks over label classes, numbered as the Closure numbers
them: first the classes of duplex labels, which fix the box forest, then
the rest in uid order, minus the classes pinned to a box.  Each tries the
top box, then the res and scope box of each duplex in uid order, so the
scopings come out in that lexicographic order.  It is compiled from the
closure's weak and strict bit rows: one check per set bit, filed under
the class whose placement completes it, and per class the candidate boxes,
a bit mask narrowed by the rows of the classes pinned to boxes.  Once the
box forest is fixed "inside or equal" is one lookup in a box's ancestor
set.  Accessibility (Kamp & Reyle, From Discourse to Logic, 1993) is one
more kind of check, kept only where the closure does not imply it, so no
scoping is built only to be refused; check_binding is the same test on a
finished DRS.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from .core import (
    CONDITIONAL, STRICT, WEAK, CycleError, DiscourseReferent, InconsistentConstraints,
    Label, Quantifier, ReferentIntro, UDRS, closure, condition_args, strict, weak,
)

_ACCESS = "access"  # the kind of a compiled accessibility check


def _scopings(u: UDRS, duplexes: list[Quantifier], labels: list[Label],
              boxes: Sequence) -> Iterator[list]:
    """The scopings one at a time, each found when it is asked for, as the
    boxes of labels (any the UDRS mentions): boxes[p] for position p, the
    duplexes being u's in uid order.

    It closes u.subord with the nesting constraints added, or u.subord
    itself where it holds them all, as a parsed UDRS does: then the closure
    is the one check_udrs built, if nothing was closed since (core.closure
    keeps the last it built).  Its two recursive placers are closures over
    the search's state, whose cells it clears when it ends or is closed: a
    nested function that reaches itself through its closure is a reference
    cycle until then."""
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
    n, n_boxes = len(weak_rows), 2 * len(duplexes) + 1
    pin: list[Optional[int]] = [None] * n
    for l, k in class_of.items():
        if l.is_top:
            pin[k] = 0
    for i, d in enumerate(duplexes):
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

    candidates = _closure_candidates(weak_rows, strict_rows, pin, n_boxes)
    owned = {k: {b for i, h in enumerate(hosts) if h == k for b in (2 * i + 1, 2 * i + 2)}
             for k in host_vars}
    # parent[p]: the box that box p sits in, once its duplex label is placed.
    # Pinned hosts cannot nest a box in itself: the closure above would have
    # found the strict cycle that nesting implies.
    parent: list[Optional[int]] = [None] + [pin[k] for k in hosts for _ in (0, 1)]
    pos: list[Optional[int]] = list(pin)
    label_class = [class_of[l] for l in labels]

    def place_hosts(i: int) -> Iterator[list]:
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

    def place_rest_in_forest() -> Iterator[list]:
        anc = []  # anc[p]: p and every box p lies in
        for p in range(n_boxes):
            chain, q = set(), p
            while q is not None:
                chain.add(q)
                q = parent[q]
            anc.append(chain)
        if not _all_hold(filed[0], pos, anc):
            return

        def place_rest(j: int) -> Iterator[list]:
            if j == len(rest_vars):
                yield [boxes[pos[k]] for k in label_class]
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
