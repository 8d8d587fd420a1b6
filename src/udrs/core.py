"""Core UDRS data model: labels, referents, conditions, subordination constraints.

A UDRS is a set of labelled DRS conditions together with a partial
subordination order over the labels.  The order is an upper semilattice with
a distinguished top element; every consistent way of flattening it into a
tree of DRS boxes is one fully scoped reading.

UDRSs are immutable values.  An argument position of a condition is a
referent, or a ``Slot`` that the UDRS's ``bindings`` map resolves: to a
referent, or to a pending key that plural disambiguation later binds in
turn.  Every step that adds information returns a new UDRS with larger
sets and a larger map; no earlier value ever changes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Hashable, Iterable, Iterator, Mapping, Optional


class UDRSError(Exception):
    """Base class for all errors raised by this package."""


class EncodingError(UDRSError):
    """An input file that is not UTF-8 text."""


def read_text(path: str) -> str:
    """The text of a UTF-8 file; EncodingError naming the path otherwise."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise EncodingError(
            f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None


class CycleError(UDRSError):
    """A label became strictly subordinate to itself."""

    def __init__(self, label: "Label"):
        self.label = label
        super().__init__(f"strict subordination cycle through {label}")


# Single process-wide id source.  itertools.count increments under the GIL,
# so concurrent derivations never collide on identifiers.
_ids = itertools.count(1)

INDIVIDUAL = "individual"
GROUP = "group"

WEAK = "weak"          # left >= right: right is nested in or equal to left
STRICT = "strict"      # left > right: right is properly nested in left
IDENTITY = "identity"  # left = right
CONDITIONAL = "conditional"


@dataclass(frozen=True)
class Label:
    """Opaque node identifier in the subordination semilattice."""

    uid: int
    is_top: bool = False

    def __repr__(self) -> str:
        return f"l⊤{self.uid}" if self.is_top else f"l{self.uid}"


def fresh_label() -> Label:
    """Issue a label distinct from every previously issued one."""
    return Label(next(_ids))


def top_label() -> Label:
    """Issue a fresh distinguished top label (one per derivation universe)."""
    return Label(next(_ids), is_top=True)


@dataclass(frozen=True)
class DiscourseReferent:
    uid: int
    sort: str = INDIVIDUAL  # INDIVIDUAL or GROUP

    def __repr__(self) -> str:
        return f"X{self.uid}" if self.sort == GROUP else f"x{self.uid}"


def fresh_referent(sort: str = INDIVIDUAL) -> DiscourseReferent:
    return DiscourseReferent(next(_ids), sort)


@dataclass(frozen=True)
class Slot:
    """A verb's argument position, resolved through a UDRS's bindings."""

    uid: int

    def __repr__(self) -> str:
        return f"?{self.uid}"


# Slots count apart from labels and referents, whose numbering (and so the
# iteration order of sets of them) is then the same with or without slots.
_slot_ids = itertools.count(1)


def fresh_slot() -> Slot:
    return Slot(next(_slot_ids))


# An argument is a referent or a Slot; a bindings map sends a Slot to a
# referent or a pending key, and a pending key to a referent.
Arg = Hashable


# --- Conditions -------------------------------------------------------------
#
# Conditions hash by identity: labels and referents are globally fresh, so
# two structurally equal conditions from different entries never exist.

@dataclass(eq=False, frozen=True)
class Condition:
    label: Label


@dataclass(eq=False, frozen=True)
class ReferentIntro(Condition):
    dref: DiscourseReferent

    def __repr__(self) -> str:
        return f"[{self.label}: {self.dref}]"


@dataclass(eq=False, frozen=True)
class Predicate(Condition):
    rel: str
    args: tuple[Arg, ...]

    def __repr__(self) -> str:
        args = ", ".join(repr(a) for a in self.args)
        return f"[{self.label}: {self.rel}({args})]"


EVERY = "every"
DISTRIBUTION = "distribution"


@dataclass(eq=False, frozen=True)
class Quantifier(Condition):
    """Duplex condition: rel is EVERY or DISTRIBUTION, res/scope label its boxes."""

    rel: str
    res: Label
    scope: Label

    def __repr__(self) -> str:
        return f"[{self.label}: {self.rel}(res={self.res}, scope={self.scope})]"


@dataclass(eq=False, frozen=True)
class Membership(Condition):
    element: Arg
    group: Arg

    def __repr__(self) -> str:
        return f"[{self.label}: {self.element} ∈ {self.group}]"


# --- Subordination constraints ----------------------------------------------

@dataclass(frozen=True)
class SubordConstraint:
    """A relation between two labels.

    kind WEAK means left >= right, STRICT left > right, IDENTITY left = right.
    A CONDITIONAL constraint carries an antecedent pair (a, b) read as the
    strict relation a > b; it is inert until that relation is derivable, and
    then contributes its consequent left >= right.
    """

    kind: str
    left: Label
    right: Label
    antecedent: Optional[tuple[Label, Label]] = None

    def __post_init__(self):
        if (self.kind == CONDITIONAL) != (self.antecedent is not None):
            raise ValueError("antecedent present iff kind is conditional")

    def __repr__(self) -> str:
        sym = {WEAK: "≥", STRICT: ">", IDENTITY: "="}
        if self.kind == CONDITIONAL:
            a, b = self.antecedent
            return f"({a} > {b} ⇒ {self.left} ≥ {self.right})"
        return f"({self.left} {sym[self.kind]} {self.right})"


def weak(left: Label, right: Label) -> SubordConstraint:
    return SubordConstraint(WEAK, left, right)


def strict(left: Label, right: Label) -> SubordConstraint:
    return SubordConstraint(STRICT, left, right)


def identity(left: Label, right: Label) -> SubordConstraint:
    return SubordConstraint(IDENTITY, left, right)


def conditional(ant_left: Label, ant_right: Label,
                left: Label, right: Label) -> SubordConstraint:
    return SubordConstraint(CONDITIONAL, left, right, (ant_left, ant_right))


@dataclass(frozen=True)
class LS:
    """Distinguished labels: upper (l_max) and lower (l_min) bound of a sign."""

    l_max: Label
    l_min: Label


_NO_BINDINGS: Mapping = MappingProxyType({})


@dataclass(frozen=True)
class UDRS:
    ls: LS
    subord: frozenset[SubordConstraint]
    conds: frozenset[Condition]
    bindings: Mapping[Arg, Arg] = field(hash=False)

    def resolve(self, arg: Arg) -> Arg:
        """Follow the bindings: a referent, or the pending key or unlinked
        Slot the argument still waits on."""
        while (bound := self.bindings.get(arg)) is not None:
            arg = bound
        return arg

    def labels(self) -> set[Label]:
        """Every label mentioned in this UDRS (LS, constraints, conditions)."""
        out = {self.ls.l_max, self.ls.l_min}
        for c in self.subord:
            out.add(c.left)
            out.add(c.right)
            if c.antecedent:
                out.update(c.antecedent)
        for cond in self.conds:
            out.add(cond.label)
            if isinstance(cond, Quantifier):
                out.add(cond.res)
                out.add(cond.scope)
        return out

    def pending_slots(self) -> list[Arg]:
        """What each argument that does not resolve to a referent waits on."""
        out = []
        for cond in self.conds:
            for arg in condition_args(cond):
                arg = self.resolve(arg)
                if not isinstance(arg, DiscourseReferent):
                    out.append(arg)
        return out

    def find_intro(self, label: Label) -> Optional[ReferentIntro]:
        for cond in self.conds:
            if isinstance(cond, ReferentIntro) and cond.label == label:
                return cond
        return None


def make_udrs(ls: LS, subord: Iterable[SubordConstraint] = (),
              conds: Iterable[Condition] = (),
              bindings: Optional[Mapping[Arg, Arg]] = None) -> UDRS:
    return UDRS(ls, frozenset(subord), frozenset(conds),
                MappingProxyType(dict(bindings)) if bindings else _NO_BINDINGS)


def condition_args(cond: Condition) -> tuple[Arg, ...]:
    if isinstance(cond, Predicate):
        return cond.args
    if isinstance(cond, Membership):
        return (cond.element, cond.group)
    return ()


# --- Closure ----------------------------------------------------------------

class Closure:
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

    def relations(self) -> Iterator[tuple[str, Label, Label]]:
        """The full derived relation set over the domain."""
        for a in self.domain:
            for b in self.domain:
                if self.identical(a, b):
                    yield (IDENTITY, a, b)
                elif self.strictly(a, b):
                    yield (STRICT, a, b)
                elif self.weakly(a, b):
                    yield (WEAK, a, b)

    def to_constraints(self) -> frozenset[SubordConstraint]:
        return frozenset(SubordConstraint(k, a, b) for k, a, b in self.relations())


def closure(constraints: Iterable[SubordConstraint]) -> Closure:
    """Compute derived relations; raises CycleError on a strict cycle."""
    return Closure(constraints)


# --- Well-formedness ---------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    kind: str  # "cycle" | "top" | "orphan"
    detail: str


def check_udrs(u: UDRS) -> list[Violation]:
    """Report semilattice violations; an empty list means the UDRS is ok.

    Checks: no strict cycles; if a top label is mentioned it dominates every
    other mentioned label; every label used by a condition occurs in the
    constraint set's domain.
    """
    try:
        c = closure(u.subord)
    except CycleError as e:
        return [Violation("cycle", f"strict cycle through {e.label}")]
    violations = []
    mentioned = u.labels()
    tops = [l for l in mentioned if l.is_top]
    if tops:
        top = tops[0]
        for l in sorted(mentioned, key=lambda l: l.uid):
            if l != top and not c.weakly(top, l):
                violations.append(Violation("top", f"{top} does not dominate {l}"))
    cond_labels = set()
    for cond in u.conds:
        cond_labels.add(cond.label)
        if isinstance(cond, Quantifier):
            cond_labels.update((cond.res, cond.scope))
    for l in sorted(cond_labels, key=lambda l: l.uid):
        if l not in c.domain:
            violations.append(Violation("orphan", f"{l} not in constraint domain"))
    return violations


def merge(u1: UDRS, u2: UDRS) -> tuple[frozenset[SubordConstraint],
                                       frozenset[Condition], dict[Arg, Arg]]:
    """Union the constraint sets, condition sets and bindings of two UDRSs.

    Does not choose a distinguished-label pair; combinators decide that.
    """
    return u1.subord | u2.subord, u1.conds | u2.conds, u1.bindings | u2.bindings
