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
QUANT_NAMES = {EVERY: "every", DISTRIBUTION: "dist"}  # as documents and readings show them


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

    Identity constraints merge labels into classes (union-find), numbered in
    uid order of their least-uid labels, the representatives.  Bit j of
    class i's weak row is set when i >= j, bit i always; a bit-parallel
    Warshall closes the rows, ORing row k into every row that has bit k.
    Class i's strict row ORs the weak rows of the targets of the strict
    edges that leave the classes in i's weak row.  A conditional fires on a
    bit of a strict row: its consequent a >= b ORs row b into every row with
    bit a, which keeps the rows closed, and the strict rows are derived
    again until none fires.  ``activated`` lists the fired conditionals in
    firing order, each round's in the order the constraint set iterates.

    A round that derives a strict cycle raises CycleError.  It names the
    least-uid representative of a class strictly subordinate to itself,
    that is, of a class on a cycle with a strict edge.
    """

    def __init__(self, constraints: Iterable[SubordConstraint]):
        self.constraints = frozenset(constraints)
        index: dict[Label, int] = {}  # labels as ints, in order of first mention
        ends = [[index.setdefault(l, len(index))
                 for l in (c.left, c.right, *(c.antecedent or ()))]
                for c in self.constraints]
        self.domain: set[Label] = set(index)
        labels = list(index)
        parent = list(range(len(labels)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = i = parent[parent[i]]
            return i

        for c, (i, j, *_) in zip(self.constraints, ends):
            if c.kind == IDENTITY:
                parent[find(i)] = find(j)
        self._reps: list[Label] = []
        number: dict[int, int] = {}  # union-find root -> class
        cls = [0] * len(labels)
        for i in sorted(range(len(labels)), key=lambda i: labels[i].uid):
            cls[i] = number.setdefault(find(i), len(number))
            if cls[i] == len(self._reps):
                self._reps.append(labels[i])
        self._class = dict(zip(labels, cls))

        rows = self._weak = [1 << k for k in range(len(self._reps))]
        strict_edges, pending = [], []
        for c, ints in zip(self.constraints, ends):
            if c.kind == CONDITIONAL:
                pending.append((c, *[cls[i] for i in ints]))
            elif c.kind != IDENTITY:
                a, b = cls[ints[0]], cls[ints[1]]
                rows[a] |= 1 << b
                if c.kind == STRICT:
                    strict_edges.append((a, b))
        for k, row in enumerate(rows):
            if row != 1 << k:
                rows[:] = [r | row if r >> k & 1 else r for r in rows]
        self.activated: list[SubordConstraint] = []
        while True:
            via = [0] * len(rows)  # via[a]: what a's strict successors dominate
            for a, b in strict_edges:
                via[a] |= rows[b]
            self._strict = [0] * len(rows)
            for a, below in enumerate(via):
                if below:
                    self._strict = [s | below if r >> a & 1 else s
                                    for r, s in zip(rows, self._strict)]
            cyclic = [i for i, s in enumerate(self._strict) if s >> i & 1]
            if cyclic:
                raise CycleError(self._reps[cyclic[0]])
            fired = [p for p in pending if self._strict[p[3]] >> p[4] & 1]
            if not fired:
                break
            pending = [p for p in pending if p not in fired]
            for c, a, b, _, _ in fired:
                self.activated.append(c)
                below = rows[b]  # whatever has bit a gains row b: still closed
                rows[:] = [r | below if r >> a & 1 else r for r in rows]

    # queries -----------------------------------------------------------

    def identical(self, a: Label, b: Label) -> bool:
        i = self._class.get(a)
        return a == b or (i is not None and i == self._class.get(b))

    def strictly(self, a: Label, b: Label) -> bool:
        """a > b derivable."""
        i, j = self._class.get(a), self._class.get(b)
        return i is not None and j is not None and self._strict[i] >> j & 1 == 1

    def weakly(self, a: Label, b: Label) -> bool:
        """a >= b derivable (identity and strict both imply it)."""
        i, j = self._class.get(a), self._class.get(b)
        return a == b or (i is not None and j is not None and self._weak[i] >> j & 1 == 1)

    def representative(self, l: Label) -> Label:
        """The label that stands for l's identity class in derived_pairs()."""
        return self._reps[self._class[l]] if l in self._class else l

    def derived_pairs(self) -> Iterator[tuple[Label, Label, bool]]:
        """Every derived a >= b between distinct class representatives.

        The flag is True when a > b is derivable.
        """
        for i, (a, row, strict_row) in enumerate(zip(self._reps, self._weak, self._strict)):
            for j, b in enumerate(self._reps):
                if j != i and row >> j & 1:
                    yield a, b, strict_row >> j & 1 == 1

    def eq_class(self, l: Label) -> set[Label]:
        i = self._class.get(l)
        return {l} if i is None else {m for m, k in self._class.items() if k == i}


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
