"""Canonical JSON serialization of UDRSs, plus DOT and plain-text rendering.

Labels are named "l1", "l2", ... and referents "x0", "x1", ... in order of
first mention: the distinguished labels, then the conditions sorted by
structure, then the labels only constraints mention; the top label is
always "l0".  serialize ∘ parse is the identity on documents.  The sort
falls back on ``Label.uid`` when structural keys tie, so two alpha-equivalent
UDRSs serialize identically only when no such tie is left.  One tie that
is: the collective reading of the UDRS rebuilt from ``udrs_11.json`` names
``l5`` and ``l6`` the other way round from ``udrs_15.json`` (ROADMAP item 9).

``to_json_str`` writes one fixed layout: keys in a fixed order, a 2-space
indent, and text other than ASCII written as UTF-8, not escaped; that is the
text ``json.dumps(doc, indent=2, ensure_ascii=False)`` gives, plus a newline.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring
from operator import itemgetter

from .core import (
    CONDITIONAL, IDENTITY, QUANT_NAMES, STRICT, WEAK,
    Arg, Condition, DiscourseReferent, Label, LS, Membership, Predicate,
    Quantifier, ReferentIntro, UDRS, UDRSError,
    conditional, identity, make_udrs, strict, weak,
)
from .delay import PendingKey

_KIND_ORDER = {WEAK: 0, STRICT: 1, IDENTITY: 2, CONDITIONAL: 3}
# A label's roles in one constraint, as its signature records them.
_ROLES = {kind: ((order, "L"), (order, "R")) for kind, order in _KIND_ORDER.items()}
_ANTECEDENT_ROLE = (3, "A")
_PENDING_SHAPE = ("p",)
_QUANT_RELS = {v: k for k, v in QUANT_NAMES.items()}
_CONSTRUCTORS = {WEAK: weak, STRICT: strict, IDENTITY: identity}


class SerializationError(UDRSError):
    pass


def _arg_shape(arg: Arg) -> tuple:
    """The sort key of a resolved argument."""
    if isinstance(arg, DiscourseReferent):
        return ("r", arg.sort)
    return _PENDING_SHAPE


def _items(items: list[str], pad: str) -> str:
    """A JSON list of item texts, closed at indentation pad."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + pad + "]"


class _Naming:
    """One UDRS's label and referent numbers, and its conditions in
    document order: each with its resolved arguments.

    Conditions sort by their structural key, their label's signature, their
    boxes' signatures (quantifiers) and then label uid.  A label's signature
    is the sorted keys of its conditions and the sorted roles it plays in
    constraints.  Labels are numbered in first mention: the distinguished
    labels, the sorted conditions, then the constraints that still have an
    unnumbered label, in order of their numbers so far (uid for the rest).
    A pending key inside a membership numbers its labels only as the
    document is written.
    """

    def __init__(self, u: UDRS):
        self.u = u
        resolve = u.resolve
        rows = []
        by_label: dict[Label, list] = {}
        boxes: list[Label] = []
        for cond in u.conds:
            if isinstance(cond, ReferentIntro):
                args: tuple = ()
                key: tuple = (0, cond.dref.sort)
            elif isinstance(cond, Predicate):
                args = tuple(map(resolve, cond.args))
                key = (1, cond.rel, len(args), tuple(map(_arg_shape, args)))
            elif isinstance(cond, Quantifier):
                args = ()
                key = (2, cond.rel)
                boxes += (cond.res, cond.scope)
            elif isinstance(cond, Membership):
                args = (resolve(cond.element), resolve(cond.group))
                key = (3, _arg_shape(args[0]), _arg_shape(args[1]))
            else:
                raise SerializationError(f"unknown condition type {type(cond).__name__}")
            rows.append((cond, args, key))
            by_label.setdefault(cond.label, []).append(key)
        roles: dict[Label, list] = {}
        for c in u.subord:
            left, right = _ROLES[c.kind]
            roles.setdefault(c.left, []).append(left)
            roles.setdefault(c.right, []).append(right)
            if c.antecedent:
                for l in c.antecedent:
                    roles.setdefault(l, []).append(_ANTECEDENT_ROLE)

        sigs: dict[Label, tuple] = {}

        def sig(l: Label) -> tuple:
            s = sigs.get(l)
            if s is None:
                s = sigs[l] = (tuple(sorted(by_label.get(l, ()))),
                               tuple(sorted(roles.get(l, ()))))
            return s

        def order(row: tuple) -> tuple:
            cond, _, key = row
            extra = ((sig(cond.res), sig(cond.scope))
                     if isinstance(cond, Quantifier) else ())
            return (key, sig(cond.label), extra, cond.label.uid)

        rows.sort(key=order)
        self.rows = rows

        self.labels = names = {l: 0 for l in (u.ls.l_max, u.ls.l_min, *roles,
                                              *by_label, *boxes) if l.is_top}
        self.refs: dict[DiscourseReferent, int] = {}
        self._next = 1
        name, ref = self.label, self.ref
        name(u.ls.l_max)
        name(u.ls.l_min)
        for cond, args, _ in rows:
            name(cond.label)
            if isinstance(cond, ReferentIntro):
                ref(cond.dref)
            elif isinstance(cond, Quantifier):
                name(cond.res)
                name(cond.scope)
            for a in args:
                if isinstance(a, DiscourseReferent):
                    ref(a)
                elif isinstance(a, PendingKey) and isinstance(cond, Predicate):
                    name(a.np_l_max)
                    name(a.np_l_min)

        # leftover labels only mentioned by constraints (e.g. scope ceilings)
        def number(l: Label) -> tuple:
            return (0, names[l]) if l in names else (1, l.uid)

        loose = [c for c in u.subord
                 if not (c.left in names and c.right in names
                         and all(a in names for a in c.antecedent or ()))]
        loose.sort(key=lambda c: (_KIND_ORDER[c.kind], number(c.left), number(c.right),
                                  tuple(map(number, c.antecedent or ()))))
        for c in loose:
            name(c.left)
            name(c.right)
            for a in c.antecedent or ():
                name(a)

    def label(self, l: Label) -> int:
        n = self.labels.get(l)
        if n is None:
            n = self.labels[l] = self._next
            self._next += 1
        return n

    def ref(self, r: DiscourseReferent) -> None:
        if r not in self.refs:
            self.refs[r] = len(self.refs)

    def _arg(self, arg: Arg, pad: str) -> str:
        if isinstance(arg, DiscourseReferent):
            return f'{{\n{pad}  "ref": "x{self.refs[arg]}"\n{pad}}}'
        if not isinstance(arg, PendingKey):
            raise SerializationError("cannot serialize an unlinked argument slot")
        return (f'{{\n{pad}  "pending": {{\n'
                f'{pad}    "max": "l{self.label(arg.np_l_max)}",\n'
                f'{pad}    "min": "l{self.label(arg.np_l_min)}"\n{pad}  }}\n{pad}}}')

    def write(self) -> str:
        names, refs = self.labels, self.refs
        conds = []
        for cond, args, _ in self.rows:
            head = f'    {{\n      "label": "l{names[cond.label]}",\n      "type": '
            if isinstance(cond, ReferentIntro):
                conds.append(f'{head}"ref",\n      "dref": {{\n'
                             f'        "id": "x{refs[cond.dref]}",\n'
                             f'        "sort": {encode_basestring(cond.dref.sort)}\n'
                             f'      }}\n    }}')
            elif isinstance(cond, Predicate):
                arg_items = ["        " + self._arg(a, "        ") for a in args]
                conds.append(f'{head}"pred",\n'
                             f'      "rel": {encode_basestring(cond.rel)},\n'
                             f'      "args": {_items(arg_items, "      ")}\n    }}')
            elif isinstance(cond, Quantifier):
                conds.append(f'{head}"quant",\n'
                             f'      "rel": "{QUANT_NAMES[cond.rel]}",\n'
                             f'      "res": "l{names[cond.res]}",\n'
                             f'      "scope": "l{names[cond.scope]}"\n    }}')
            else:
                element, group = args
                conds.append(f'{head}"member",\n'
                             f'      "element": {self._arg(element, "      ")},\n'
                             f'      "group": {self._arg(group, "      ")}\n    }}')

        numbered = []
        for c in self.u.subord:
            ant = tuple(names[a] for a in c.antecedent or ())
            numbered.append(((_KIND_ORDER[c.kind], names[c.left], names[c.right], ant), c))
        numbered.sort(key=itemgetter(0))
        subord = []
        for (_, left, right, ant), c in numbered:
            item = (f'    {{\n      "kind": "{c.kind}",\n'
                    f'      "left": "l{left}",\n      "right": "l{right}"')
            if ant:
                ant_items = [f'        "l{a}"' for a in ant]
                item += f',\n      "antecedent": {_items(ant_items, "      ")}'
            subord.append(item + "\n    }")

        ls = self.u.ls
        return (f'{{\n  "ls": {{\n    "max": "l{names[ls.l_max]}",\n'
                f'    "min": "l{names[ls.l_min]}"\n  }},\n'
                f'  "subord": {_items(subord, "  ")},\n'
                f'  "conds": {_items(conds, "  ")}\n}}\n')


def display_names(u: UDRS) -> dict[Label, str]:
    """Canonical label names, e.g. for trace output."""
    return {l: f"l{n}" for l, n in _Naming(u).labels.items()}


def to_json_str(u: UDRS) -> str:
    """The UDRS's canonical JSON document as text (see the module docstring)."""
    return _Naming(u).write()


def to_json(u: UDRS) -> dict:
    """The UDRS's canonical JSON document."""
    return json.loads(to_json_str(u))


def from_json(doc) -> UDRS:
    """Rebuild a UDRS from its JSON document (dict or string).

    Fresh internal identifiers are assigned; a pending argument becomes a
    fresh Slot bound to its key, so pl_dis_* can disambiguate the result
    directly.  Text that is not JSON, or a missing or ill-typed field,
    raises SerializationError.
    """
    try:
        if isinstance(doc, str):
            doc = json.loads(doc)
        return _from_doc(doc)
    except KeyError as e:
        raise SerializationError(f"malformed UDRS document: missing field {e.args[0]!r}") from None
    except (TypeError, ValueError) as e:
        raise SerializationError(f"malformed UDRS document: {e}") from None


def _from_doc(doc: dict) -> UDRS:
    labels: dict[str, Label] = {}
    refs: dict[str, DiscourseReferent] = {}
    bindings: dict[Arg, Arg] = {}
    from . import core

    def text(d: dict, field: str) -> str:
        if not isinstance(d[field], str):
            raise SerializationError(f"malformed UDRS document: {field} {d[field]!r} "
                                     "is not a string")
        return d[field]

    def label(d: dict, field: str) -> Label:
        name = text(d, field)
        if name not in labels:
            labels[name] = core.top_label() if name == "l0" else core.fresh_label()
        return labels[name]

    def ref(d: dict) -> DiscourseReferent:
        sort, name = text(d, "sort"), text(d, "id")
        if name not in refs:
            refs[name] = core.fresh_referent(sort)
        return refs[name]

    def arg(d: dict) -> Arg:
        if "ref" in d:
            return refs.setdefault(text(d, "ref"), core.fresh_referent())
        slot = core.fresh_slot()
        bindings[slot] = PendingKey(label(d["pending"], "max"), label(d["pending"], "min"))
        return slot

    for cd in doc["conds"]:  # introductions first, so sorts are known at use sites
        if cd["type"] == "ref":
            ref(cd["dref"])

    ls = LS(label(doc["ls"], "max"), label(doc["ls"], "min"))
    conds: list[Condition] = []
    for cd in doc["conds"]:
        l = label(cd, "label")
        if cd["type"] == "ref":
            conds.append(ReferentIntro(l, ref(cd["dref"])))
        elif cd["type"] == "pred":
            conds.append(Predicate(l, text(cd, "rel"), tuple(arg(a) for a in cd["args"])))
        elif cd["type"] == "quant":
            if cd["rel"] not in _QUANT_RELS:
                raise SerializationError(f"unknown quantifier {cd['rel']!r}")
            conds.append(Quantifier(l, _QUANT_RELS[cd["rel"]],
                                    label(cd, "res"), label(cd, "scope")))
        elif cd["type"] == "member":
            conds.append(Membership(l, arg(cd["element"]), arg(cd["group"])))
        else:
            raise SerializationError(f"unknown condition type {cd['type']!r}")
    subord = []
    for sd in doc["subord"]:
        if sd["kind"] == CONDITIONAL:
            a, b = ({"antecedent": name} for name in sd["antecedent"])
            subord.append(conditional(label(a, "antecedent"), label(b, "antecedent"),
                                      label(sd, "left"), label(sd, "right")))
        elif sd["kind"] in _CONSTRUCTORS:
            subord.append(_CONSTRUCTORS[sd["kind"]](label(sd, "left"), label(sd, "right")))
        else:
            raise SerializationError(f"unknown constraint kind {sd['kind']!r}")
    return make_udrs(ls, subord, conds, bindings)


# --- Rendering ---------------------------------------------------------------

_SYMBOL = {WEAK: ">=", STRICT: ">", IDENTITY: "="}


def constraint_text(kind: str, left: str, right: str, antecedent=()) -> str:
    """One constraint over label names, as text output shows it."""
    if kind == CONDITIONAL:
        a, b = antecedent
        return f"({a} > {b} => {left} >= {right})"
    return f"{left} {_SYMBOL[kind]} {right}"


def render_text(u: UDRS) -> str:
    doc = to_json(u)
    lines = [f"LS      max={doc['ls']['max']} min={doc['ls']['min']}"]
    parts = [constraint_text(c["kind"], c["left"], c["right"], c.get("antecedent"))
             for c in doc["subord"]]
    lines.append("SUBORD  {" + ", ".join(parts) + "}")
    lines.append("CONDS")
    for c in doc["conds"]:
        lines.append("  " + _cond_text(c))
    return "\n".join(lines) + "\n"


def _slot_text(d: dict) -> str:
    if "ref" in d:
        return d["ref"]
    return f"?({d['pending']['max']},{d['pending']['min']})"


def _cond_text(c: dict) -> str:
    if c["type"] == "ref":
        return f"{c['label']}: dref {c['dref']['id']} ({c['dref']['sort']})"
    if c["type"] == "pred":
        args = ", ".join(_slot_text(a) for a in c["args"])
        return f"{c['label']}: {c['rel']}({args})"
    if c["type"] == "quant":
        return f"{c['label']}: {c['rel']}(res {c['res']}, scope {c['scope']})"
    return f"{c['label']}: {_slot_text(c['element'])} in {_slot_text(c['group'])}"


def to_dot(u: UDRS) -> str:
    """Graphviz digraph: a node per condition label, an edge per constraint.

    Conditional constraints render dashed, labelled with their antecedent.
    """
    doc = to_json(u)
    by_label: dict[str, list[str]] = {}
    for c in doc["conds"]:
        by_label.setdefault(c["label"], []).append(_cond_text(c).split(": ", 1)[1])
    lines = ["digraph udrs {", "  rankdir=BT;", "  node [shape=box];"]
    for name in sorted(by_label, key=lambda n: int(n[1:])):
        text = "\\n".join([name] + by_label[name]).replace('"', '\\"')
        lines.append(f'  {name} [label="{text}"];')
    for c in doc["subord"]:
        if c["kind"] == CONDITIONAL:
            a, b = c["antecedent"]
            lines.append(f'  {c["right"]} -> {c["left"]} '
                         f'[style=dashed, label="if {a} > {b}"];')
        else:
            lines.append(f'  {c["right"]} -> {c["left"]} [label="{_SYMBOL[c["kind"]]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
