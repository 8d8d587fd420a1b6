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
from types import MappingProxyType
from typing import Hashable, Iterable, Mapping, NamedTuple, Optional


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


class InconsistentConstraints(UDRSError):
    """A constraint set no scoping can satisfy: its closure has a cycle."""


# Single process-wide id source.  itertools.count increments under the GIL,
# so concurrent derivations never collide on identifiers.
_ids = itertools.count(1)

INDIVIDUAL = "individual"
GROUP = "group"

WEAK = "weak"          # left >= right: right is nested in or equal to left
STRICT = "strict"      # left > right: right is properly nested in left
IDENTITY = "identity"  # left = right
CONDITIONAL = "conditional"


# Labels, referents, slots and constraints are hashed at every step of
# construction, so they are NamedTuples: hash and == are tuple's, in C.  Each
# hashes as the tuple of its fields, which fixes the iteration order of the
# sets and dicts that hold them, and so the order of every output.

class Label(NamedTuple):
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


class DiscourseReferent(NamedTuple):
    uid: int
    sort: str = INDIVIDUAL  # INDIVIDUAL or GROUP

    def __repr__(self) -> str:
        return f"X{self.uid}" if self.sort == GROUP else f"x{self.uid}"


def fresh_referent(sort: str = INDIVIDUAL) -> DiscourseReferent:
    return DiscourseReferent(next(_ids), sort)


class Slot(NamedTuple):
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
# Their fields are slots, set once by __init__ and never assigned again.

_init_field = object.__setattr__


class Condition:
    __slots__ = ("label",)

    def __init__(self, label: Label):
        _init_field(self, "label", label)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"Condition(label={self.label!r})"

    def __reduce__(self):
        """copy and pickle rebuild a condition through its constructor."""
        fields = [f for k in reversed(type(self).__mro__) for f in getattr(k, "__slots__", ())]
        return type(self), tuple(getattr(self, f) for f in fields)


class ReferentIntro(Condition):
    __slots__ = ("dref",)

    def __init__(self, label: Label, dref: DiscourseReferent):
        _init_field(self, "label", label)
        _init_field(self, "dref", dref)

    def __repr__(self) -> str:
        return f"[{self.label}: {self.dref}]"


class Predicate(Condition):
    __slots__ = ("rel", "args")

    def __init__(self, label: Label, rel: str, args: tuple[Arg, ...]):
        _init_field(self, "label", label)
        _init_field(self, "rel", rel)
        _init_field(self, "args", args)

    def __repr__(self) -> str:
        args = ", ".join(repr(a) for a in self.args)
        return f"[{self.label}: {self.rel}({args})]"


EVERY = "every"
DISTRIBUTION = "distribution"
QUANT_NAMES = {EVERY: "every", DISTRIBUTION: "dist"}  # as documents and readings show them


class Quantifier(Condition):
    """Duplex condition: rel is EVERY or DISTRIBUTION, res/scope label its boxes."""

    __slots__ = ("rel", "res", "scope")

    def __init__(self, label: Label, rel: str, res: Label, scope: Label):
        _init_field(self, "label", label)
        _init_field(self, "rel", rel)
        _init_field(self, "res", res)
        _init_field(self, "scope", scope)

    def __repr__(self) -> str:
        return f"[{self.label}: {self.rel}(res={self.res}, scope={self.scope})]"


class Membership(Condition):
    __slots__ = ("element", "group")

    def __init__(self, label: Label, element: Arg, group: Arg):
        _init_field(self, "label", label)
        _init_field(self, "element", element)
        _init_field(self, "group", group)

    def __repr__(self) -> str:
        return f"[{self.label}: {self.element} ∈ {self.group}]"


# --- Subordination constraints ----------------------------------------------

class _Subord(NamedTuple):
    kind: str
    left: Label
    right: Label
    antecedent: tuple[Label, ...] = ()


class SubordConstraint(_Subord):
    """A relation between two labels.

    kind WEAK means left >= right, STRICT left > right, IDENTITY left = right.
    A CONDITIONAL constraint carries an antecedent pair (a, b) read as the
    strict relation a > b; it is inert until that relation is derivable, and
    then contributes its consequent left >= right.  Every other kind holds
    () there, which hashes alike in every process, as None does not before
    Python 3.12.
    """

    __slots__ = ()

    def __new__(cls, kind: str, left: Label, right: Label, antecedent: tuple[Label, ...] = ()):
        if (kind == CONDITIONAL) != bool(antecedent):
            raise ValueError("antecedent present iff kind is conditional")
        return tuple.__new__(cls, (kind, left, right, antecedent))

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


class LS(NamedTuple):
    """Distinguished labels: upper (l_max) and lower (l_min) bound of a sign."""

    l_max: Label
    l_min: Label


_NO_BINDINGS: Mapping = MappingProxyType({})


class UDRS(NamedTuple):
    ls: LS
    subord: frozenset[SubordConstraint]
    conds: frozenset[Condition]
    bindings: Mapping[Arg, Arg]

    def __hash__(self) -> int:
        return hash(self[:3])  # not the bindings: a mapping has no hash

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

    One pass over the constraints collects the domain, the labels they
    mention, and sorts the constraints into weak and strict edges,
    identities and conditionals.  ``classes`` maps each label of the
    domain, in uid order, to its class: identity constraints merge labels
    into classes (union-find, run only when there is an identity), numbered
    in uid order of their least-uid labels, the representatives.  Bit j of
    class i's row in ``weak_rows`` is set when i >= j, bit i always; a
    bit-parallel Warshall closes the rows, ORing row k into every row that
    has bit k.  Class i's row in ``strict_rows`` ORs the weak rows of the
    targets of the strict edges that leave the classes in i's weak row.  A
    conditional fires on a bit of a strict row: its consequent a >= b ORs
    row b into every row with bit a, which keeps the rows closed, and the
    strict rows are derived again until none fires.  ``activated`` lists
    the fired conditionals in firing order, each round's in the order the
    constraint set iterates.

    A round that derives a strict cycle raises CycleError.  It names the
    least-uid representative of a class strictly subordinate to itself,
    that is, of a class on a cycle with a strict edge.
    """

    def __init__(self, constraints: Iterable[SubordConstraint]):
        self.constraints = frozenset(constraints)
        domain: set[Label] = set()
        edges, same, pending = [], [], []
        for c in self.constraints:
            kind, left, right, antecedent = c
            domain.add(left)
            domain.add(right)
            if antecedent:
                domain.update(antecedent)
                pending.append(c)
            elif kind == IDENTITY:
                same.append(c)
            else:
                edges.append(c)
        self.domain = domain
        labels = sorted(domain)  # uid order: uids are unique
        classes = self.classes = dict(zip(labels, range(len(labels))))
        reps = labels
        if same:
            parent = list(range(len(labels)))

            def find(i: int) -> int:
                while parent[i] != i:
                    parent[i] = i = parent[parent[i]]
                return i

            for c in same:
                parent[find(classes[c.left])] = find(classes[c.right])
            reps, number = [], {}  # number: union-find root -> class
            for i, l in enumerate(labels):
                classes[l] = k = number.setdefault(find(i), len(number))
                if k == len(reps):
                    reps.append(l)

        rows = self.weak_rows = [1 << k for k in range(len(reps))]
        strict_edges = []
        for kind, left, right, _ in edges:
            a, b = classes[left], classes[right]
            rows[a] |= 1 << b
            if kind == STRICT:
                strict_edges.append((a, b))
        for k, row in enumerate(rows):
            if row != 1 << k:
                rows[:] = [r | row if r >> k & 1 else r for r in rows]
        pending = [(c, classes[c.antecedent[0]], classes[c.antecedent[1]]) for c in pending]
        self.activated: list[SubordConstraint] = []
        while True:
            via = [0] * len(rows)  # via[a]: what a's strict successors dominate
            for a, b in strict_edges:
                via[a] |= rows[b]
            srows = [0] * len(rows)
            for a, below in enumerate(via):
                if below:
                    srows = [s | below if r >> a & 1 else s for r, s in zip(rows, srows)]
            self.strict_rows = srows
            for i, s in enumerate(srows):
                if s >> i & 1:
                    raise CycleError(reps[i])
            fired = [p for p in pending if srows[p[1]] >> p[2] & 1]
            if not fired:
                break
            pending = [p for p in pending if p not in fired]
            for c, _, _ in fired:
                self.activated.append(c)
                below = rows[classes[c.right]]  # what has bit a gains row b: still closed
                a = classes[c.left]
                rows[:] = [r | below if r >> a & 1 else r for r in rows]

    # queries -----------------------------------------------------------

    def identical(self, a: Label, b: Label) -> bool:
        i = self.classes.get(a)
        return a == b or (i is not None and i == self.classes.get(b))

    def strictly(self, a: Label, b: Label) -> bool:
        """a > b derivable."""
        i, j = self.classes.get(a), self.classes.get(b)
        return i is not None and j is not None and self.strict_rows[i] >> j & 1 == 1

    def weakly(self, a: Label, b: Label) -> bool:
        """a >= b derivable (identity and strict both imply it)."""
        i, j = self.classes.get(a), self.classes.get(b)
        return a == b or (i is not None and j is not None and self.weak_rows[i] >> j & 1 == 1)


_last_closure: Optional[Closure] = None


def closure(constraints: Iterable[SubordConstraint]) -> Closure:
    """Compute derived relations; raises CycleError on a strict cycle.

    The last Closure built is kept and returned again for an equal
    constraint set: the scope search of a parsed sentence closes the set
    that check_udrs closed a moment before.  A Closure is only read once
    built, so callers may share it."""
    global _last_closure
    constraints = frozenset(constraints)
    last = _last_closure
    if last is not None and last.constraints == constraints:
        return last
    _last_closure = Closure(constraints)
    return _last_closure


# --- Well-formedness ---------------------------------------------------------

class Violation(NamedTuple):
    kind: str  # "cycle" | "top" | "orphan"
    detail: str


def check_udrs(u: UDRS) -> list[Violation]:
    """Report semilattice violations; an empty list means the UDRS is ok.

    Checks: no strict cycles; if a top label is mentioned it dominates every
    other mentioned label; every label used by a condition occurs in the
    constraint set's domain.  Top dominance is read off the top class's weak
    row: when it holds every class and the domain every mentioned label,
    there is nothing to list.
    """
    try:
        c = closure(u.subord)
    except CycleError as e:
        return [Violation("cycle", f"strict cycle through {e.label}")]
    violations = []
    cond_labels = set()
    for cond in u.conds:
        cond_labels.add(cond.label)
        if isinstance(cond, Quantifier):
            cond_labels.update((cond.res, cond.scope))
    # u.labels(), without walking the constraints again: the domain holds theirs
    mentioned = c.domain | cond_labels | {u.ls.l_max, u.ls.l_min}
    loose = len(mentioned) > len(c.domain)  # a label outside every constraint
    tops = [l for l in mentioned if l.is_top]
    if tops:
        top = min(tops)  # the least uid, should a UDRS mention two
        row = c.weak_rows[c.classes[top]] if top in c.classes else 0
        if loose or row != (1 << len(c.weak_rows)) - 1:
            for l in sorted(mentioned):
                j = c.classes.get(l)
                if l != top and (j is None or not row >> j & 1):
                    violations.append(Violation("top", f"{top} does not dominate {l}"))
    if loose:
        for l in sorted(cond_labels):
            if l not in c.domain:
                violations.append(Violation("orphan", f"{l} not in constraint domain"))
    return violations


def merge(u1: UDRS, u2: UDRS) -> tuple[frozenset[SubordConstraint],
                                       frozenset[Condition], dict[Arg, Arg]]:
    """Union the constraint sets, condition sets and bindings of two UDRSs.

    Does not choose a distinguished-label pair; combinators decide that.
    """
    return u1.subord | u2.subord, u1.conds | u2.conds, u1.bindings | u2.bindings
