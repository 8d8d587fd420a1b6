"""Canonical JSON serialization of UDRSs, plus DOT and plain-text rendering.

Label ids render as stable strings assigned in first-mention order of a
canonical traversal; the top label is always "l0".  Because the traversal
depends only on the structure, alpha-equivalent UDRSs serialize to identical
documents and serialize ∘ parse is the identity on documents.
"""

from __future__ import annotations

import json

from .core import (
    CONDITIONAL, DISTRIBUTION, EVERY, IDENTITY, STRICT, WEAK,
    Arg, Condition, DiscourseReferent, Label, LS, Membership, Predicate,
    Quantifier, ReferentIntro, SubordConstraint, UDRS, UDRSError,
    conditional, identity, make_udrs, strict, weak,
)
from .delay import PendingKey

_KIND_ORDER = {WEAK: 0, STRICT: 1, IDENTITY: 2, CONDITIONAL: 3}
_QUANT_NAMES = {EVERY: "every", DISTRIBUTION: "dist"}
_QUANT_RELS = {v: k for k, v in _QUANT_NAMES.items()}
_CONSTRUCTORS = {WEAK: weak, STRICT: strict, IDENTITY: identity}


class SerializationError(UDRSError):
    pass


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
    raise SerializationError(f"unknown condition type {type(cond).__name__}")


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
        raise SerializationError("cannot serialize an unlinked argument slot")
    return {"pending": {"max": namer.label(arg.np_l_max),
                        "min": namer.label(arg.np_l_min)}}


def display_names(u: UDRS) -> dict[Label, str]:
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


def to_json(u: UDRS) -> dict:
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


def to_json_str(u: UDRS) -> str:
    return json.dumps(to_json(u), indent=2, ensure_ascii=False) + "\n"


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

    def label(name: str) -> Label:
        if name not in labels:
            labels[name] = core.top_label() if name == "l0" else core.fresh_label()
        return labels[name]

    def ref(d: dict) -> DiscourseReferent:
        if d["id"] not in refs:
            refs[d["id"]] = core.fresh_referent(d["sort"])
        return refs[d["id"]]

    def arg(d: dict) -> Arg:
        if "ref" in d:
            return refs.setdefault(d["ref"], core.fresh_referent())
        slot = core.fresh_slot()
        bindings[slot] = PendingKey(label(d["pending"]["max"]), label(d["pending"]["min"]))
        return slot

    for cd in doc["conds"]:  # introductions first, so sorts are known at use sites
        if cd["type"] == "ref":
            ref(cd["dref"])

    ls = LS(label(doc["ls"]["max"]), label(doc["ls"]["min"]))
    conds: list[Condition] = []
    for cd in doc["conds"]:
        l = label(cd["label"])
        if cd["type"] == "ref":
            conds.append(ReferentIntro(l, ref(cd["dref"])))
        elif cd["type"] == "pred":
            conds.append(Predicate(l, cd["rel"], tuple(arg(a) for a in cd["args"])))
        elif cd["type"] == "quant":
            if cd["rel"] not in _QUANT_RELS:
                raise SerializationError(f"unknown quantifier {cd['rel']!r}")
            conds.append(Quantifier(l, _QUANT_RELS[cd["rel"]],
                                    label(cd["res"]), label(cd["scope"])))
        elif cd["type"] == "member":
            conds.append(Membership(l, arg(cd["element"]), arg(cd["group"])))
        else:
            raise SerializationError(f"unknown condition type {cd['type']!r}")
    subord = []
    for sd in doc["subord"]:
        if sd["kind"] == CONDITIONAL:
            a, b = sd["antecedent"]
            subord.append(conditional(label(a), label(b), label(sd["left"]), label(sd["right"])))
        elif sd["kind"] in _CONSTRUCTORS:
            subord.append(_CONSTRUCTORS[sd["kind"]](label(sd["left"]), label(sd["right"])))
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
