"""Readings: the fully scoped DRSs consistent with a UDRS.

A scoping puts each label in the top box or in the restrictor or scope box
of a duplex condition so that every subordination constraint holds there
(scoping.py: the search, which loads on first use).  This layer turns
scopings into readings; it does no plural disambiguation: a UDRS whose
plurals still wait on it (plurals.pl_dis_*) has no readings.

Every scoping places the same conditions over the same referents, so a
private table compiles a UDRS once for all its readings: it numbers the
referents in uid order and puts each condition over those numbers.  Per
scoping, one pass over the labels buckets the conditions by box and builds
the reading's box over referent indices (canonical.Box), and that box is
the reading: a built DRS grounds its referents and conditions only when
they are first asked for, never to label, dedup, check or print it.

Two scoped DRSs are the same reading when a renaming of referents that
keeps their sorts maps one onto the other.  canonical_form is the least
shape over the numberings of the referents that canonical.py tries, and
render_drs and drs_to_json print that shape, naming referents x<i>/X<i> by
its numbers.  Both come from one labelling search, which each DRS runs at
most once, on its box; a DRS made by hand is compiled to a box first.
Every numbering numbers the sorts in sort order, groups first, so the names
are the same in every reading of a UDRS, and its table makes them once.
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional

from .core import (
    GROUP, QUANT_NAMES, Arg, DiscourseReferent, Label, Membership, Predicate,
    Quantifier, ReferentIntro, UDRS, UDRSError, condition_args,
)
from .core import InconsistentConstraints  # noqa: F401  the search's error, named here too

if TYPE_CHECKING:
    from .canonical import Box

TOP_BOX = ("top",)


class UnresolvedSlot(UDRSError):
    pass


class DRS:
    """One box: a universe of referents plus ground and duplex conditions.

    A value: it iterates, compares and hashes as the tuple of its four
    fields, equals a plain 4-tuple of them, and has no field to assign.
    The fields are the referents, the predicates (rel, referents), the
    memberships (element, group) and the DuplexConditions.  A DRS made by
    hand holds its fields.  One that build_drs made is its box over the
    indices of its table's referents, and derives its fields, and its
    duplexes' DRSs the same lazy way, on first access.
    """

    __slots__ = ("_fields", "_frame", "_box", "_labelling")

    def __init__(self, referents: frozenset, predicates: frozenset, memberships: frozenset,
                 duplexes: frozenset):
        self._fields = (referents, predicates, memberships, duplexes)
        self._box = self._labelling = None

    def _ground(self) -> tuple:
        """The four fields, derived from the box on first access."""
        if self._fields is None:
            frame, (universe, preds, mems, dups) = self._frame, self._box.lists
            ref = frame.refs.__getitem__
            self._fields = (
                frozenset(map(ref, universe)),
                frozenset([(rel, tuple(map(ref, args))) for rel, args in preds]),
                frozenset([(ref(e), ref(g)) for _, (e, g) in mems]),
                frozenset([DuplexCondition(rel, _built(frame, res), _built(frame, scope))
                           for rel, res, scope in dups]))
        return self._fields

    referents = property(lambda d: d._ground()[0])
    predicates = property(lambda d: d._ground()[1])
    memberships = property(lambda d: d._ground()[2])
    duplexes = property(lambda d: d._ground()[3])

    @property
    def labelling(self) -> tuple[tuple, dict[DiscourseReferent, int]]:
        """(shape, numbering) of the canonical labelling, found once per DRS
        on its box.  canonical loads here or with the first _Table."""
        if self._labelling is None:
            from .canonical import label_boxes
            frame, box = self._indexed()
            self._labelling = label_boxes(frame.refs, box, frame.firsts)
        return self._labelling

    def _indexed(self) -> tuple[_Frame, Box]:
        """Its frame and its box, compiled once if made by hand."""
        if self._box is None:
            from .canonical import _compile
            refs, self._box = _compile(self)
            self._frame = _Frame(refs)
        return self._frame, self._box

    def __iter__(self) -> Iterator[frozenset]:
        return iter(self._ground())

    def __eq__(self, other) -> bool:
        if isinstance(other, (DRS, tuple)):
            return self._ground() == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._ground())

    def __repr__(self) -> str:
        return ("DRS(referents={!r}, predicates={!r}, memberships={!r}, duplexes={!r})"
                .format(*self))

    def __reduce__(self) -> tuple:
        return DRS, self._ground()


def _built(frame: _Frame, box: Box) -> DRS:
    """The DRS that is box, over the indices of frame.refs."""
    d = DRS.__new__(DRS)
    d._fields = d._labelling = None
    d._frame, d._box = frame, box
    return d


class _Frame:
    """What the readings of one UDRS share: its referents in uid order, as
    canonical numbers them; their sort partition, where each labelling
    starts; and each number's display name, X<i> for a group and x<i> for
    the rest.  Every numbering gives the sorts the numbers in sort order."""

    __slots__ = ("refs", "firsts", "names")

    def __init__(self, refs: list[DiscourseReferent]):
        from .canonical import _firsts
        sorts = [r.sort for r in refs]
        self.refs, self.firsts = refs, _firsts(sorts)
        self.names = [f"X{i}" if s == GROUP else f"x{i}" for i, s in enumerate(sorted(sorts))]


class DuplexCondition(NamedTuple):
    rel: str
    res: DRS
    scope: DRS


def enumerate_scopings(u: UDRS) -> list[dict[Label, tuple]]:
    """All label placements consistent with the constraint set under which
    every referent occurrence is accessible (check_binding finds nothing).

    A placement maps every label the UDRS mentions to its box: TOP_BOX, or
    ("res", uid) or ("scope", uid) of the duplex whose label has that uid.
    They come in the search's order (scoping._scopings).
    """
    from .scoping import _scopings
    labels = sorted(u.labels(), key=attrgetter("uid"))
    duplexes = _duplexes(u)
    return [dict(zip(labels, at)) for at in _scopings(u, duplexes, labels, _boxes(duplexes))]


def _duplexes(u: UDRS) -> list[Quantifier]:
    return sorted((cond for cond in u.conds if isinstance(cond, Quantifier)),
                  key=lambda d: d.label.uid)


def _boxes(duplexes: list[Quantifier]) -> list[tuple]:
    """The box at each position: TOP_BOX, then each duplex's res and scope."""
    return [TOP_BOX, *((part, d.label.uid) for d in duplexes for part in ("res", "scope"))]


def build_drs(u: UDRS, placement: dict[Label, tuple]) -> DRS:
    """Materialize the box tree a placement describes: each box holds the
    conditions whose label the placement puts there.  A placement that
    leaves a condition out of that tree raises UDRSError naming a label."""
    table = _table(u)
    drs = table.build([table.where.get(placement.get(l)) for l in table.labels])
    if drs is None:
        raise UDRSError(table.misplaced(placement))
    return drs


@lru_cache(maxsize=1)
def _table(u: UDRS) -> _Table:
    """The table of the last UDRS build_drs was given, kept until another
    comes: a caller building one UDRS's scopings one at a time, as the
    benchmark's traced run does, compiles that UDRS once."""
    return _Table(u)


class _Table:
    """A UDRS compiled once for all its scopings.

    Every scoping places the same conditions over the same referents, so a
    condition's form over referent indices is the same in all of them, and
    so is the frame.  The conditions are grouped by label, in uid order: a
    group is (size, universe, predicates, memberships, duplexes), each
    distinct item once, a duplex (rel, res position, scope position).  A
    scoping moves whole groups, and build takes it as each group's
    position.  A box without duplexes is the same wherever its groups go,
    so each is built once.
    """

    def __init__(self, u: UDRS):
        index: dict[Arg, DiscourseReferent | int] = {}  # referent, then its index
        unresolved = 0
        for cond in u.conds:
            for arg in condition_args(cond):
                ref = u.resolve(arg)
                if isinstance(ref, DiscourseReferent):
                    index[arg] = ref
                else:
                    unresolved += 1
        if unresolved:
            raise UnresolvedSlot(
                f"{unresolved} unresolved argument slot(s); disambiguate first")
        intros = {c.dref for c in u.conds if isinstance(c, ReferentIntro)}
        from .canonical import Box  # canonical loads with the first table
        self.new_box = Box
        self.frame = _Frame(sorted(intros.union(index.values()), key=attrgetter("uid")))
        num = {r: i for i, r in enumerate(self.frame.refs)}
        for arg, ref in index.items():
            index[arg] = num[ref]
        self.size = len(u.conds)
        self.duplexes = _duplexes(u)
        self.where: dict[tuple, int] = {}
        for p, box in enumerate(_boxes(self.duplexes)):
            self.where.setdefault(box, p)  # two duplexes of one label share their boxes
        by_label: dict[Label, list] = {}
        for cond in sorted(u.conds, key=lambda c: c.label.uid):
            by_label.setdefault(cond.label, []).append(cond)
        self.labels = list(by_label)
        self.groups = [self._group(conds, index, num) for conds in by_label.values()]
        items = [item for group in self.groups for part in group[1:4] for item in part]
        self.repeats = len(set(items)) < len(items)  # an item two groups share
        self.leaves: dict[tuple[int, ...], tuple[Box, int]] = {}

    def _group(self, conds: list, index: dict[Arg, int], num: dict) -> tuple:
        universe, preds, members, dups = {}, {}, {}, []
        for c in conds:
            if isinstance(c, ReferentIntro):
                universe[num[c.dref]] = None
            elif isinstance(c, Predicate):
                preds[c.rel, tuple(map(index.__getitem__, c.args))] = None
            elif isinstance(c, Membership):
                members[None, (index[c.element], index[c.group])] = None
            elif isinstance(c, Quantifier):
                p = self.where["res", c.label.uid]
                dups.append((c.rel, p, p + 1))
        return len(conds), list(universe), list(preds), list(members), dups

    def build(self, at: list[Optional[int]]) -> Optional[DRS]:
        """The DRS that puts group i at position at[i], or None where that
        leaves a condition out of the box tree."""
        boxes: dict[Optional[int], list[int]] = {}
        for i, p in enumerate(at):
            if p in boxes:
                boxes[p].append(i)
            else:
                boxes[p] = [i]
        top, placed = self._box(0, boxes)
        return _built(self.frame, top) if placed == self.size else None

    def _box(self, p: int, at: dict[Optional[int], list[int]]) -> tuple[Box, int]:
        """The box at position p, and how many conditions it holds, nested
        ones too.  at lists the groups the scoping puts at each position."""
        ids = tuple(at.get(p, ()))
        if ids in self.leaves:
            return self.leaves[ids]
        placed, universe, preds, members, quants = 0, [], [], [], []
        groups = self.groups
        for i in ids:
            size, group_universe, group_preds, group_members, group_dups = groups[i]
            placed += size
            universe += group_universe
            preds += group_preds
            members += group_members
            quants += group_dups
        dups = []
        for rel, res_p, scope_p in quants:
            res, in_res = self._box(res_p, at)
            scope, in_scope = self._box(scope_p, at)
            placed += in_res + in_scope
            dups.append((rel, res, scope))
        if self.repeats and len(ids) > 1:  # each distinct item once, as sets keep it
            universe, preds, members = set(universe), list(set(preds)), list(set(members))
        if len({t[0] for t in dups}) < len(dups):
            from .canonical import box_key
            dups = list({(rel, box_key(res), box_key(scope)): (rel, res, scope)
                         for rel, res, scope in dups}.values())
        built = self.new_box(tuple(universe), preds, members, dups), placed
        if not quants:
            self.leaves[ids] = built
        return built

    def misplaced(self, placement: dict[Label, tuple]) -> str:
        """Which label a placement leaves out of the box tree, and how."""
        owner = {box: self.duplexes[(p - 1) // 2].label for box, p in self.where.items() if p}
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


# --- Public operations ----------------------------------------------------------

def canonical_form(d: DRS) -> tuple:
    """Reading identity: the least shape over the numberings of referents
    that canonical.py tries, all of which give groups the lesser numbers.
    A renaming that keeps sorts keeps it, and equal forms mean some
    renaming maps one DRS onto the other, one that keeps sorts when the two
    have as many groups, as the readings of one UDRS do."""
    return d.labelling[0]


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
    from .scoping import _scopings
    table = _Table(u)
    boxes = _boxes(table.duplexes)
    for at in _scopings(u, table.duplexes, table.labels, range(len(boxes))):
        drs = table.build(at)
        if drs is None:  # two duplexes of one label, whose boxes the table merges
            raise UDRSError(table.misplaced(dict(zip(table.labels, map(boxes.__getitem__, at)))))
        yield drs


def count_readings(u: UDRS) -> int:
    return len(enumerate_readings(u))


def check_binding(d: DRS) -> list[str]:
    """Verify every referent occurrence is accessible from its box.

    Accessible means: declared in the same box, an ancestor box, or, for a
    duplex's scope, the duplex's restrictor.  Empty list means ok.  Each
    box's messages come in order of its predicates by (rel, uids), then of
    its memberships by uids.  It reads the DRS's box, not its fields.
    """
    frame, box = d._indexed()
    violations: list[str] = []
    _unbound(box, frame.refs, frozenset(), violations)
    return violations


def _unbound(box: Box, refs: list[DiscourseReferent], accessible: frozenset[int],
             violations: list[str]) -> None:
    """check_binding's messages for box and the boxes in it, added to
    violations; accessible holds the indices of the referents declared
    above box.  A box's items are sorted, and indices follow uids."""
    universe, preds, mems, dups = box.lists
    here = accessible.union(universe)
    for rel, args in preds:
        if not here.issuperset(args):
            violations.extend(f"{rel}: referent {refs[a]} not accessible"
                              for a in args if a not in here)
    for _, args in mems:
        if not here.issuperset(args):
            violations.extend(f"membership: referent {refs[a]} not accessible"
                              for a in args if a not in here)
    for _, res, scope in dups:
        _unbound(res, refs, here, violations)
        _unbound(scope, refs, here.union(res.lists[0]), violations)


# --- Rendering -------------------------------------------------------------------

def render_drs(d: DRS) -> str:
    return "\n".join(_lines(d.labelling[0], d._frame.names))


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
    return _json_box(d.labelling[0], d._frame.names)


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
