"""Independent brute-force reading oracle.

Deliberately avoids the library's constraint closure and backtracking
search: it enumerates every box forest by trying all insertion orders of
the duplex conditions (factorial) and every host box for each, then the
full cartesian product of positions for the remaining labels, and checks
each raw constraint directly against the resulting geometry.  Slow and
obvious, which is the point.

``reference_build_drs`` is the library's first DRS builder, which grounded
every argument of each placed condition through the bindings anew; it is
kept verbatim (but for names) so that the per-UDRS reading table, which
grounds and compiles each condition once, can be held to the same DRSs.

``reference_check_binding`` is the library's ``check_binding``, kept
verbatim (but for the name) so that the oracle's readings do not depend on
the reading layer's own accessibility check.

``reference_scopings`` is a second, narrower oracle: the library's first,
plain backtracking scope search, kept verbatim so that the indexed search
can be held to the same placements in the same order.  It checks
constraints with ``ReferenceScoping``, the library's first scoping value
(a placement plus its box forest, with geometry methods), kept verbatim but
for the name; ``reference_scoping`` wraps a library placement in it, so
tests can check constraints against the forest the placement fixes.  The
search derives its relations with ``ReferenceClosure``, the library's first
closure (Floyd-Warshall over a dict of label pairs), kept verbatim so that
the bit-parallel closure can be held to the same relations; its two
test-only methods, ``relations`` and ``to_constraints``, are functions in
conftest.
``reference_dref_res`` is the library's first argument-NP classifier, which
closed the NP's own constraints with that closure; it is kept verbatim (but
for the closure's name) so that ``dref_res``, which reads the one constraint
the determiner put between the NP's distinguished labels, can be held to it.

``reference_canonical`` is the library's first reading identity: the least
shape over every permutation of the referents (n!), with the first
permutation that reaches it as the display numbering.  Sorts do not enter
it, so equal forms of it say that some renaming maps one DRS onto the
other; ``reference_identity`` adds the sort of each number, so equal keys
of it say that a renaming that keeps sorts does.  The library's identity
gives groups the lesser numbers: a reading none of whose boxes can tie
(``can_tie``) is identified by ``sorted_canonical``, the least shape over
the numberings that do, and one that can tie by ``refined_canonical``, the
least shape over the numberings that respect ``reference_ranks``, a colour
refinement of the referents (first colour the sort) written here over
``DRS``, apart from the library's.  Both are ``_least_respecting`` over a
colouring.
``reference_render`` and ``reference_json`` are the first reading printers,
kept but for their order: they print each part in the order of the
numbering they are given, as the library does, with the display names
``reference_names`` makes from it, where the first printers sorted by name
(x10 before x2).  The canonical labelling is held to them for the same
forms, names and bytes.

``reference_to_json`` and ``reference_display_names`` are the library's
first UDRS document writer and label namer: a naming walk over sorted
conditions, nested dicts, then ``json.dumps``.  They are kept verbatim (but
for names) so that the one-pass writer can be held to the same bytes and
names.

``reference_parse_sentence`` is the library's first chart parser for one
sentence, a dense CKY that tries every split point of every span, with its
combination rules; it is kept verbatim (but for names) so that the parser
that splits only at filled cells can be held to the same derivations, in
the same order, and the same failures.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from udrs.core import (
    CONDITIONAL, DISTRIBUTION, EVERY, IDENTITY, STRICT, WEAK, Arg, Condition,
    CycleError, DiscourseReferent, Label, Membership, Predicate, Quantifier,
    ReferentIntro, SubordConstraint, UDRS, UDRSError, weak,
)
from udrs.delay import MalformedNP, PendingKey
from udrs.grammar import (
    FUNCTIONAL, HEAD_COMP, HEAD_SUBJ, LEXICAL, DerivationNode, ParseFailure,
)
from udrs.lexicon import Lexicon
from udrs.readings import (
    DRS, TOP_BOX, DuplexCondition, InconsistentConstraints, UnresolvedSlot,
)

TOP = ("top",)


def _positions_of(duplexes) -> list[tuple]:
    out = [TOP]
    for d in duplexes:
        out.append(("res", d.label.uid))
        out.append(("scope", d.label.uid))
    return out


def _forests(duplexes) -> list[dict]:
    """Every acyclic host assignment, via insertion orders of the duplexes."""
    forests = []
    seen = set()
    for order in itertools.permutations(duplexes):
        choices_per_duplex = []
        for i, d in enumerate(order):
            hosts = [TOP]
            for earlier in order[:i]:
                hosts.append(("res", earlier.label.uid))
                hosts.append(("scope", earlier.label.uid))
            choices_per_duplex.append(hosts)
        for combo in itertools.product(*choices_per_duplex):
            host_map = {order[i].label.uid: combo[i] for i in range(len(order))}
            key = tuple(sorted(host_map.items()))
            if key not in seen:
                seen.add(key)
                forests.append(host_map)
    return forests


def _parents(host_map: dict) -> dict:
    parents = {TOP: None}
    for uid, host in host_map.items():
        parents[("res", uid)] = host
        parents[("scope", uid)] = host
    return parents


def _inside(parents: dict, inner: tuple, outer: tuple) -> bool:
    p = inner
    while p is not None:
        if p == outer:
            return True
        p = parents[p]
    return False


def _ok(parents: dict, place: dict, constraints) -> bool:
    for c in constraints:
        if c.kind == CONDITIONAL:
            a, b = c.antecedent
            realized = place[a] != place[b] and _inside(parents, place[b], place[a])
            if realized and not _inside(parents, place[c.right], place[c.left]):
                return False
        elif c.kind == IDENTITY:
            if place[c.left] != place[c.right]:
                return False
        elif c.kind == STRICT:
            if place[c.left] == place[c.right]:
                return False
            if not _inside(parents, place[c.right], place[c.left]):
                return False
        elif c.kind == WEAK:
            if not _inside(parents, place[c.right], place[c.left]):
                return False
    return True


def _build(u: UDRS, place: dict, pos: tuple) -> DRS:
    refs, preds, members, duplexes = set(), set(), set(), set()
    for cond in u.conds:
        if place[cond.label] != pos:
            continue
        if isinstance(cond, ReferentIntro):
            refs.add(cond.dref)
        elif isinstance(cond, Predicate):
            preds.add((cond.rel, tuple(u.resolve(a) for a in cond.args)))
        elif isinstance(cond, Membership):
            members.add((u.resolve(cond.element), u.resolve(cond.group)))
        elif isinstance(cond, Quantifier):
            duplexes.add(DuplexCondition(
                cond.rel,
                _build(u, place, ("res", cond.label.uid)),
                _build(u, place, ("scope", cond.label.uid))))
    return DRS(frozenset(refs), frozenset(preds), frozenset(members),
               frozenset(duplexes))


def oracle_readings(u: UDRS) -> list[DRS]:
    duplexes = sorted((c for c in u.conds if isinstance(c, Quantifier)),
                      key=lambda d: d.label.uid)
    labels = sorted(u.labels(), key=lambda l: l.uid)

    readings = {}
    for host_map in _forests(duplexes):
        parents = _parents(host_map)
        positions = _positions_of(duplexes)
        fixed = {}
        for l in labels:
            if l.is_top:
                fixed[l] = TOP
        for d in duplexes:
            fixed[d.label] = host_map[d.label.uid]
            fixed[d.res] = ("res", d.label.uid)
            fixed[d.scope] = ("scope", d.label.uid)
        free = [l for l in labels if l not in fixed]
        for combo in itertools.product(positions, repeat=len(free)):
            place = dict(fixed)
            place.update(zip(free, combo))
            if not _ok(parents, place, u.subord):
                continue
            drs = _build(u, place, TOP)
            if reference_check_binding(drs):
                continue
            readings.setdefault(reference_canonical(drs)[0], drs)
    return list(readings.values())


def oracle_count(u: UDRS) -> int:
    return len(oracle_readings(u))


def reference_build_drs(u: UDRS, placement: dict[Label, tuple]) -> DRS:
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
                preds.add((cond.rel, tuple(_reference_ground(u, a) for a in cond.args)))
            elif isinstance(cond, Membership):
                members.add((_reference_ground(u, cond.element),
                             _reference_ground(u, cond.group)))
            elif isinstance(cond, Quantifier):
                subs.add(DuplexCondition(
                    cond.rel,
                    box(("res", cond.label.uid)),
                    box(("scope", cond.label.uid))))
        return DRS(frozenset(refs), frozenset(preds), frozenset(members),
                   frozenset(subs))

    return box(TOP_BOX)


def _reference_ground(u: UDRS, arg: Arg) -> DiscourseReferent:
    ref = u.resolve(arg)
    if not isinstance(ref, DiscourseReferent):
        raise UnresolvedSlot(f"argument {arg!r} waits on {ref!r}")
    return ref


def reference_check_binding(d: DRS) -> list[str]:
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


class ReferenceClosure:
    """Derived subordination relations of a constraint set.

    The least relation closed under reflexivity of >=, transitivity of >=
    and >, interchange of identity-related labels, strict∘weak = strict, and
    fixpoint activation of conditional constraints whose antecedent's strict
    relation became derivable.
    """

    def __init__(self, constraints: Iterable[SubordConstraint]):
        self.constraints = frozenset(constraints)
        self._parent: dict[Label, Label] = {}
        self.domain: set[Label] = set()
        for c in self.constraints:
            self.domain.update((c.left, c.right))
            if c.antecedent:
                self.domain.update(c.antecedent)
        for l in self.domain:
            self._parent[l] = l
        for c in self.constraints:
            if c.kind == IDENTITY:
                self._union(c.left, c.right)
        self.activated: list[SubordConstraint] = []
        self._rel: dict[tuple[Label, Label], int] = {}  # rep pair -> 1 weak / 2 strict
        self._solve()

    # union-find over identity constraints
    def _find(self, l: Label) -> Label:
        p = self._parent
        while p[l] != l:
            p[l] = p[p[l]]
            l = p[l]
        return l

    def _union(self, a: Label, b: Label) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra != rb:
            self._parent[ra] = rb

    def _solve(self) -> None:
        active = [c for c in self.constraints if c.kind in (WEAK, STRICT)]
        pending = [c for c in self.constraints if c.kind == CONDITIONAL]
        while True:
            self._close(active)
            fired = [c for c in pending
                     if self._rel.get((self._find(c.antecedent[0]),
                                       self._find(c.antecedent[1]))) == 2]
            if not fired:
                break
            for c in fired:
                pending.remove(c)
                self.activated.append(c)
                active.append(weak(c.left, c.right))

    def _close(self, active: list[SubordConstraint]) -> None:
        reps = sorted({self._find(l) for l in self.domain}, key=lambda l: l.uid)
        rel = {(r, r): 1 for r in reps}
        for c in active:
            a, b = self._find(c.left), self._find(c.right)
            strength = 2 if c.kind == STRICT else 1
            rel[(a, b)] = max(rel.get((a, b), 0), strength)
        for k in reps:
            for i in reps:
                ik = rel.get((i, k))
                if not ik:
                    continue
                for j in reps:
                    kj = rel.get((k, j))
                    if not kj:
                        continue
                    composed = max(ik, kj)  # any strict step makes the path strict
                    if composed > rel.get((i, j), 0):
                        rel[(i, j)] = composed
        for r in reps:
            if rel.get((r, r)) == 2:
                raise CycleError(r)
        self._rel = rel

    # queries -----------------------------------------------------------

    def identical(self, a: Label, b: Label) -> bool:
        if a == b:
            return True
        if a not in self._parent or b not in self._parent:
            return False
        return self._find(a) == self._find(b)

    def strictly(self, a: Label, b: Label) -> bool:
        """a > b derivable."""
        if a not in self._parent or b not in self._parent:
            return False
        return self._rel.get((self._find(a), self._find(b))) == 2

    def weakly(self, a: Label, b: Label) -> bool:
        """a >= b derivable (identity and strict both imply it)."""
        if a == b:
            return True
        if a not in self._parent or b not in self._parent:
            return False
        return self._rel.get((self._find(a), self._find(b)), 0) >= 1

    def representative(self, l: Label) -> Label:
        """The label that stands for l's identity class in derived_pairs()."""
        return self._find(l) if l in self._parent else l

    def derived_pairs(self) -> Iterator[tuple[Label, Label, bool]]:
        """Every derived a >= b between distinct class representatives.

        The flag is True when a > b is derivable.
        """
        for (a, b), strength in self._rel.items():
            if a != b:
                yield a, b, strength == 2

    def eq_class(self, l: Label) -> set[Label]:
        if l not in self._parent:
            return {l}
        r = self._find(l)
        return {m for m in self.domain if self._find(m) == r}


def reference_dref_res(np_udrs: UDRS):
    """Resolve an argument NP's UDRS to a referent, or to its PendingKey.

    Works on the NP's own local constraint set, which later combination
    steps never touch, so the outcome is stable by construction.
    """
    l_max, l_min = np_udrs.ls.l_max, np_udrs.ls.l_min
    c = ReferenceClosure(np_udrs.subord)
    if c.identical(l_max, l_min):
        # not scope bearing: referent introduced at the maximal label
        for label in c.eq_class(l_max):
            intro = np_udrs.find_intro(label)
            if intro is not None:
                return intro.dref
        raise MalformedNP(f"no referent introduced at {l_max}")
    if c.strictly(l_max, l_min):
        # scope bearing: referent sits in the quantifier's restrictor
        for cond in np_udrs.conds:
            if isinstance(cond, Quantifier) and c.identical(cond.label, l_max):
                intro = np_udrs.find_intro(cond.res)
                if intro is not None:
                    return intro.dref
                raise MalformedNP(f"no referent at restrictor {cond.res}")
        raise MalformedNP(f"strict NP without duplex at {l_max}")
    if c.weakly(l_max, l_min):
        return PendingKey(l_max, l_min)
    raise MalformedNP(f"no subordination pattern between {l_max} and {l_min}")


@dataclass
class ReferenceScoping:
    """A placement of every label class into a box position."""

    placement: dict[Label, tuple]
    parents: dict[tuple, Optional[tuple]]

    def position(self, l: Label) -> tuple:
        return self.placement[l]

    def inside_or_equal(self, inner: tuple, outer: tuple) -> bool:
        p: Optional[tuple] = inner
        while p is not None:
            if p == outer:
                return True
            p = self.parents.get(p)
        return False

    def satisfies(self, c: SubordConstraint) -> bool:
        """Check one constraint geometrically against this placement."""
        if c.kind == CONDITIONAL:
            a, b = c.antecedent
            pa, pb = self.placement[a], self.placement[b]
            realized = pa != pb and self.inside_or_equal(pb, pa)
            if not realized:
                return True
            return self.inside_or_equal(self.placement[c.right], self.placement[c.left])
        pl, pr = self.placement[c.left], self.placement[c.right]
        if c.kind == IDENTITY:
            return pl == pr
        if c.kind == STRICT:
            return pl != pr and self.inside_or_equal(pr, pl)
        return self.inside_or_equal(pr, pl)  # WEAK


def reference_scoping(u: UDRS, placement: dict[Label, tuple]) -> ReferenceScoping:
    """A placement with the box forest it fixes: each duplex's boxes sit
    where the placement puts the duplex's label."""
    return ReferenceScoping(placement, _parents(
        {d.label.uid: placement[d.label] for d in u.conds if isinstance(d, Quantifier)}))


def reference_scopings(u: UDRS) -> list[dict[Label, tuple]]:
    """The plain backtracking search the library's scope search must match.

    Tries every position for every label class and re-checks every
    complete constraint at every node.  Same placements, same order as
    readings.enumerate_scopings, only slower.
    """
    try:
        c = ReferenceClosure(u.subord)
    except CycleError as e:
        raise InconsistentConstraints(str(e)) from None

    mentioned = sorted(u.labels(), key=lambda l: l.uid)
    reps = {l: min(c.eq_class(l), key=lambda m: m.uid) for l in mentioned}
    duplexes = sorted((cond for cond in u.conds if isinstance(cond, Quantifier)),
                      key=lambda d: d.label.uid)

    positions: list[tuple] = [TOP_BOX]
    pinned: dict[Label, tuple] = {}
    for l in mentioned:
        if l.is_top:
            pinned[reps[l]] = TOP_BOX
    for d in duplexes:
        res_pos, scope_pos = ("res", d.label.uid), ("scope", d.label.uid)
        positions.extend((res_pos, scope_pos))
        for label, pos in ((d.res, res_pos), (d.scope, scope_pos)):
            r = reps[label]
            if pinned.get(r, pos) != pos:
                return []  # one class pinned to two distinct boxes
            pinned[r] = pos

    variables = []
    seen = set()
    duplex_reps = []
    for d in duplexes:
        r = reps[d.label]
        if r not in pinned and r not in seen:
            duplex_reps.append(r)
            seen.add(r)
    for l in mentioned:
        r = reps[l]
        if r not in pinned and r not in seen:
            variables.append(r)
            seen.add(r)

    constraints = list(u.subord)
    results: list[dict[Label, tuple]] = []
    assignment: dict[Label, tuple] = dict(pinned)

    def parents_for(assign: dict[Label, tuple]) -> Optional[dict]:
        parents: dict[tuple, Optional[tuple]] = {TOP_BOX: None}
        for d in duplexes:
            host = assign[reps[d.label]]
            parents[("res", d.label.uid)] = host
            parents[("scope", d.label.uid)] = host
        # every chain must reach the top box without looping
        for p in parents:
            chain = set()
            q: Optional[tuple] = p
            while q is not None:
                if q in chain:
                    return None
                chain.add(q)
                q = parents.get(q)
            if TOP_BOX not in chain:
                return None
        return parents

    def check(scoping: ReferenceScoping, assigned: set[Label]) -> bool:
        for c in constraints:
            labels = [c.left, c.right] + list(c.antecedent or ())
            if all(reps[l] in assigned for l in labels):
                full = ReferenceScoping({l: scoping.placement[reps[l]] for l in labels},
                                        scoping.parents)
                if not full.satisfies(c):
                    return False
        return True

    def assign_rest(rest: list[Label], parents: dict) -> None:
        if not rest:
            placement = {l: assignment[reps[l]] for l in mentioned}
            results.append(placement)
            return
        var, tail = rest[0], rest[1:]
        for pos in positions:
            assignment[var] = pos
            partial = ReferenceScoping(assignment, parents)
            if check(partial, set(assignment)):
                assign_rest(tail, parents)
        del assignment[var]

    def assign_duplexes(rest: list[Label]) -> None:
        if not rest:
            parents = parents_for(assignment)
            if parents is None:
                return
            partial = ReferenceScoping(assignment, parents)
            if check(partial, set(assignment)):
                assign_rest(list(variables), parents)
            return
        var, tail = rest[0], rest[1:]
        for pos in positions:
            assignment[var] = pos
            assign_duplexes(tail)
        del assignment[var]

    assign_duplexes(list(duplex_reps))
    return results


def all_referents(d: DRS) -> set[DiscourseReferent]:
    out = set(d.referents)
    for rel, args in d.predicates:
        out.update(args)
    for e, g in d.memberships:
        out.update((e, g))
    for dup in d.duplexes:
        out |= all_referents(dup.res) | all_referents(dup.scope)
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


def reference_canonical(d: DRS) -> tuple[tuple, dict[DiscourseReferent, int]]:
    """The least shape over all referent renamings, and the first renaming
    (in permutation order over referents sorted by uid) that gives it."""
    refs = sorted(all_referents(d), key=lambda r: r.uid)
    if not refs:
        return _shape(d, {}), {}
    best, best_perm = None, None
    for perm in itertools.permutations(range(len(refs))):
        naming = {r: perm[i] for i, r in enumerate(refs)}
        shape = _shape(d, naming)
        if best is None or shape < best:
            best, best_perm = shape, naming
    return best, best_perm


def reference_identity(d: DRS) -> tuple:
    """The least (shape, sort of each number) over every permutation of the
    referents: two DRSs share it exactly when a renaming that keeps sorts
    maps one onto the other.  Its shape is reference_canonical's form."""
    refs = sorted(all_referents(d), key=lambda r: r.uid)
    best = None
    for perm in itertools.permutations(range(len(refs))):
        naming = {r: perm[i] for i, r in enumerate(refs)}
        sorts = [""] * len(refs)
        for r, i in naming.items():
            sorts[i] = r.sort
        candidate = (_shape(d, naming), tuple(sorts))
        if best is None or candidate < best:
            best = candidate
    return best


def can_tie(d: DRS) -> bool:
    """Whether some box of d holds two predicates of one rel, two
    memberships, or two duplexes of one rel."""
    rels = [rel for rel, _ in d.predicates]
    dup_rels = [dup.rel for dup in d.duplexes]
    return (len(set(rels)) < len(rels) or len(d.memberships) > 1
            or len(set(dup_rels)) < len(dup_rels)
            or any(can_tie(dup.res) or can_tie(dup.scope) for dup in d.duplexes))


def reference_ranks(d: DRS) -> dict[DiscourseReferent, int]:
    """Colour refinement of d's referents.  The first colour is the sort.
    Each round colours a referent by its colour and the sorted list of its
    occurrences, each (place, the arguments' colours), until no colour
    splits.  A place is (path, 0) in a universe, (path, 1, rel, position)
    in a predicate and (path, 2, None, position) in a membership; a path
    lists (rel, 0 for the restrictor or 1 for the scope) from the top box.
    A colour is the number of referents whose colour is less."""
    occurrences: dict[DiscourseReferent, list] = {r: [] for r in all_referents(d)}

    def visit(box: DRS, path: tuple) -> None:
        for r in box.referents:
            occurrences[r].append(((path, 0), ()))
        for rel, args in box.predicates:
            for j, a in enumerate(args):
                occurrences[a].append(((path, 1, rel, j), args))
        for e, g in box.memberships:
            for j, a in enumerate((e, g)):
                occurrences[a].append(((path, 2, None, j), (e, g)))
        for dup in box.duplexes:
            visit(dup.res, path + ((dup.rel, 0),))
            visit(dup.scope, path + ((dup.rel, 1),))

    def lesser(key: dict) -> dict:
        return {r: sum(k < key[r] for k in key.values()) for r in key}

    visit(d, ())
    colour = lesser({r: r.sort for r in occurrences})
    while True:
        new = lesser({r: (colour[r], sorted((place, [colour[a] for a in args])
                                            for place, args in occ))
                      for r, occ in occurrences.items()})
        if len(set(new.values())) == len(set(colour.values())):
            return new
        colour = new


def refined_canonical(d: DRS) -> tuple[tuple, dict[DiscourseReferent, int]]:
    """The least shape over the numberings that respect reference_ranks
    (a referent of lesser colour gets a lesser number), and the first of
    them that gives it (see _least_respecting)."""
    return _least_respecting(d, reference_ranks(d))


def sorted_canonical(d: DRS) -> tuple[tuple, dict[DiscourseReferent, int]]:
    """The least shape over the numberings that give groups the lesser
    numbers, and the first of them that gives it: refined_canonical with
    the sorts as the only colours."""
    sorts = {r: r.sort for r in all_referents(d)}
    return _least_respecting(d, {r: sum(s < sorts[r] for s in sorts.values()) for r in sorts})


def _least_respecting(d: DRS, colour: dict[DiscourseReferent, int]) -> tuple[tuple, dict]:
    """The least shape over the numberings that respect colour, and the
    first of them (in permutation order over referents sorted by uid) that
    gives it: each colour's referents take every order of its numbers."""
    refs = sorted(all_referents(d), key=lambda r: r.uid)
    cells = [[r for r in refs if colour[r] == c] for c in sorted(set(colour.values()))]
    numbers = [range(colour[cell[0]], colour[cell[0]] + len(cell)) for cell in cells]
    best, best_naming = None, None
    for orders in itertools.product(*map(itertools.permutations, numbers)):
        naming = {r: i for cell, order in zip(cells, orders) for r, i in zip(cell, order)}
        candidate = (_shape(d, naming), [naming[r] for r in refs])
        if best is None or candidate < best:
            best, best_naming = candidate, naming
    return best[0], best_naming


def reference_names(naming: dict[DiscourseReferent, int]) -> dict[DiscourseReferent, str]:
    return {r: (f"X{i}" if r.sort == "group" else f"x{i}") for r, i in naming.items()}


_REL_DISPLAY = {"distribution": "dist"}


def reference_render(d: DRS, naming: dict[DiscourseReferent, int]) -> str:
    return "\n".join(_box_lines(d, naming, reference_names(naming)))


def _box_lines(d: DRS, naming: dict[DiscourseReferent, int],
               names: dict[DiscourseReferent, str]) -> list[str]:
    header = " ".join(names[r] for r in sorted(d.referents, key=naming.__getitem__))
    body: list[list[str]] = []
    for rel, args in sorted(d.predicates, key=lambda p: (p[0], [naming[a] for a in p[1]])):
        body.append([f"{rel}({', '.join(names[a] for a in args)})"])
    for e, g in sorted(d.memberships, key=lambda m: (naming[m[0]], naming[m[1]])):
        body.append([f"{names[e]} in {names[g]}"])
    for dup in sorted(d.duplexes, key=lambda x: (x.rel, _shape(x.res, naming),
                                                 _shape(x.scope, naming))):
        res_lines = _box_lines(dup.res, naming, names)
        scope_lines = _box_lines(dup.scope, naming, names)
        rel = _REL_DISPLAY.get(dup.rel, dup.rel)
        body.append(_join_duplex(res_lines, f"={rel}=>", scope_lines))

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


def reference_json(d: DRS, naming: dict[DiscourseReferent, int]) -> dict:
    names = reference_names(naming)

    def box(b: DRS) -> dict:
        conds: list[dict] = []
        for rel, args in sorted(b.predicates, key=lambda p: (p[0], [naming[a] for a in p[1]])):
            conds.append({"type": "pred", "rel": rel,
                          "args": [names[a] for a in args]})
        for e, g in sorted(b.memberships, key=lambda m: (naming[m[0]], naming[m[1]])):
            conds.append({"type": "member", "element": names[e], "group": names[g]})
        for dup in sorted(b.duplexes, key=lambda x: (x.rel, _shape(x.res, naming),
                                                     _shape(x.scope, naming))):
            conds.append({"type": "duplex", "rel": _REL_DISPLAY.get(dup.rel, dup.rel),
                          "res": box(dup.res), "scope": box(dup.scope)})
        return {"referents": [names[r] for r in sorted(b.referents, key=naming.__getitem__)],
                "conditions": conds}

    return box(d)


# --- The first UDRS document writer -----------------------------------------


class ReferenceSerializationError(UDRSError):
    pass


_KIND_ORDER = {WEAK: 0, STRICT: 1, IDENTITY: 2, CONDITIONAL: 3}
_QUANT_NAMES = {EVERY: "every", DISTRIBUTION: "dist"}


def _arg_shape(u: UDRS, arg: Arg) -> tuple:
    arg = u.resolve(arg)
    if isinstance(arg, DiscourseReferent):
        return ("r", arg.sort)
    return ("p",)


def _base_key(u: UDRS, cond: Condition) -> tuple:
    if isinstance(cond, ReferentIntro):
        return (0, cond.dref.sort)
    if isinstance(cond, Predicate):
        return (1, cond.rel, len(cond.args), tuple(_arg_shape(u, a) for a in cond.args))
    if isinstance(cond, Quantifier):
        return (2, cond.rel)
    if isinstance(cond, Membership):
        return (3, _arg_shape(u, cond.element), _arg_shape(u, cond.group))
    raise ReferenceSerializationError(f"unknown condition type {type(cond).__name__}")


def _label_signatures(u: UDRS) -> dict[Label, tuple]:
    """Structural fingerprint per label, independent of label identity."""
    by_label: dict[Label, list] = {}
    for cond in u.conds:
        by_label.setdefault(cond.label, []).append(_base_key(u, cond))
    roles: dict[Label, list] = {}
    for c in u.subord:
        roles.setdefault(c.left, []).append((_KIND_ORDER[c.kind], "L"))
        roles.setdefault(c.right, []).append((_KIND_ORDER[c.kind], "R"))
        if c.antecedent:
            for l in c.antecedent:
                roles.setdefault(l, []).append((3, "A"))
    sigs = {}
    for l in u.labels():
        sigs[l] = (tuple(sorted(by_label.get(l, []))),
                   tuple(sorted(roles.get(l, []))))
    return sigs


def _sorted_conditions(u: UDRS) -> list[Condition]:
    sigs = _label_signatures(u)

    def key(cond: Condition) -> tuple:
        extra: tuple = ()
        if isinstance(cond, Quantifier):
            extra = (sigs[cond.res], sigs[cond.scope])
        return (_base_key(u, cond), sigs[cond.label], extra, cond.label.uid)

    return sorted(u.conds, key=key)


class _Namer:
    def __init__(self, u: UDRS):
        self.labels: dict[Label, str] = {}
        self.refs: dict[DiscourseReferent, str] = {}
        self._next_label = 1
        self._next_ref = 0
        for l in u.labels():
            if l.is_top:
                self.labels[l] = "l0"

    def label(self, l: Label) -> str:
        if l not in self.labels:
            self.labels[l] = f"l{self._next_label}"
            self._next_label += 1
        return self.labels[l]

    def ref(self, r: DiscourseReferent) -> str:
        if r not in self.refs:
            self.refs[r] = f"x{self._next_ref}"
            self._next_ref += 1
        return self.refs[r]


def _arg_doc(u: UDRS, arg: Arg, namer: _Namer) -> dict:
    arg = u.resolve(arg)
    if isinstance(arg, DiscourseReferent):
        return {"ref": namer.ref(arg)}
    if not isinstance(arg, PendingKey):
        raise ReferenceSerializationError("cannot serialize an unlinked argument slot")
    return {"pending": {"max": namer.label(arg.np_l_max),
                        "min": namer.label(arg.np_l_min)}}


def reference_display_names(u: UDRS) -> dict[Label, str]:
    """Canonical label names, e.g. for trace output."""
    namer = _walk(u)[0]
    return dict(namer.labels)


def _walk(u: UDRS) -> tuple[_Namer, list[Condition]]:
    namer = _Namer(u)
    namer.label(u.ls.l_max)
    namer.label(u.ls.l_min)
    conds = _sorted_conditions(u)
    for cond in conds:
        namer.label(cond.label)
        if isinstance(cond, Quantifier):
            namer.label(cond.res)
            namer.label(cond.scope)
        if isinstance(cond, ReferentIntro):
            namer.ref(cond.dref)
        if isinstance(cond, Predicate):
            for a in cond.args:
                a = u.resolve(a)
                if isinstance(a, DiscourseReferent):
                    namer.ref(a)
                elif isinstance(a, PendingKey):
                    namer.label(a.np_l_max)
                    namer.label(a.np_l_min)
        if isinstance(cond, Membership):
            for a in (cond.element, cond.group):
                a = u.resolve(a)
                if isinstance(a, DiscourseReferent):
                    namer.ref(a)
    # leftover labels only mentioned by constraints (e.g. scope ceilings)
    def pre(c: SubordConstraint) -> tuple:
        def n(l: Label) -> tuple:
            return (0, int(namer.labels[l][1:])) if l in namer.labels else (1, l.uid)
        ant = c.antecedent or ()
        return (_KIND_ORDER[c.kind], n(c.left), n(c.right), tuple(n(a) for a in ant))

    for c in sorted(u.subord, key=pre):
        namer.label(c.left)
        namer.label(c.right)
        if c.antecedent:
            for a in c.antecedent:
                namer.label(a)
    return namer, conds


def reference_to_json(u: UDRS) -> dict:
    namer, conds = _walk(u)

    def lname(l: Label) -> str:
        return namer.labels[l]

    def num(name: str) -> int:
        return int(name[1:])

    cond_docs = []
    for cond in conds:
        doc: dict = {"label": lname(cond.label)}
        if isinstance(cond, ReferentIntro):
            doc["type"] = "ref"
            doc["dref"] = {"id": namer.ref(cond.dref), "sort": cond.dref.sort}
        elif isinstance(cond, Predicate):
            doc["type"] = "pred"
            doc["rel"] = cond.rel
            doc["args"] = [_arg_doc(u, a, namer) for a in cond.args]
        elif isinstance(cond, Quantifier):
            doc["type"] = "quant"
            doc["rel"] = _QUANT_NAMES[cond.rel]
            doc["res"] = lname(cond.res)
            doc["scope"] = lname(cond.scope)
        elif isinstance(cond, Membership):
            doc["type"] = "member"
            doc["element"] = _arg_doc(u, cond.element, namer)
            doc["group"] = _arg_doc(u, cond.group, namer)
        cond_docs.append(doc)

    sub_docs = []
    def skey(c: SubordConstraint) -> tuple:
        ant = tuple(num(lname(a)) for a in (c.antecedent or ()))
        return (_KIND_ORDER[c.kind], num(lname(c.left)), num(lname(c.right)), ant)

    for c in sorted(u.subord, key=skey):
        doc = {"kind": c.kind, "left": lname(c.left), "right": lname(c.right)}
        if c.antecedent:
            doc["antecedent"] = [lname(a) for a in c.antecedent]
        sub_docs.append(doc)

    return {"ls": {"max": lname(u.ls.l_max), "min": lname(u.ls.l_min)},
            "subord": sub_docs,
            "conds": cond_docs}


# --- The first chart parser -----------------------------------------------------

def reference_parse_sentence(tokens: list[str], offset: int,
                             lexicon: Lexicon) -> list[DerivationNode]:
    """All parses of one sentence segment (CKY over the fragment grammar)."""
    n = len(tokens)
    if n == 0:
        raise ParseFailure(offset, "empty sentence")
    cells: dict[tuple[int, int], list[tuple[tuple, DerivationNode]]] = {}

    def add(i: int, j: int, cat: tuple, node: DerivationNode) -> None:
        cell = cells.setdefault((i, j), [])
        cell.append((cat, node))
        if cat == ("v", "intrans"):      # intransitive verb projects to VP directly
            cell.append((("vp",), node))

    for i, tok in enumerate(tokens):
        if tok not in lexicon:
            raise ParseFailure(offset + i, f"unknown word {tok!r}")
        add(i, i + 1, lexicon.category(tok), DerivationNode(LEXICAL, word=tok))

    for width in range(2, n + 1):
        for i in range(0, n - width + 1):
            j = i + width
            for k in range(i + 1, j):
                for lcat, lnode in cells.get((i, k), []):
                    for rcat, rnode in cells.get((k, j), []):
                        made = _reference_combine(lcat, lnode, rcat, rnode)
                        if made is not None:
                            add(i, j, *made)

    parses = [node for cat, node in cells.get((0, n), []) if cat == ("s",)]
    if not parses:
        reached = max((j for (i, j) in cells if i == 0 and cells[(i, j)]), default=0)
        raise ParseFailure(offset + reached, "no sentence parse")
    return parses


def _reference_combine(lcat, lnode, rcat, rnode):
    if lcat[0] == "det" and rcat[0] == "n" and lcat[1] == rcat[1]:
        return ("np", lcat[1]), DerivationNode(HEAD_COMP, head=lnode, nonhead=rnode)
    if lcat == ("v", "trans") and rcat[0] == "np":
        return ("vp",), DerivationNode(HEAD_COMP, head=lnode, nonhead=rnode)
    if lcat == ("v", "clause") and rcat == ("cs",):
        return ("vp",), DerivationNode(HEAD_COMP, head=lnode, nonhead=rnode)
    if lcat == ("comp",) and rcat == ("s",):
        return ("cs",), DerivationNode(FUNCTIONAL, head=lnode, nonhead=rnode)
    if lcat[0] == "np" and rcat == ("vp",):
        return ("s",), DerivationNode(HEAD_SUBJ, head=rnode, nonhead=lnode)
    return None
