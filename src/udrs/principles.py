"""Construction combinators: fold a derivation tree into a root sign.

Every combination unions the daughters' conditions and constraints and may
add a bounded delta: one weak constraint tying the verb label below the
argument's minimal label (the closed-formula step), and for scope-bearing
or potentially scope-bearing arguments, those whose determiner did not make
their distinguished labels identical, one conditional constraint capping
them at the clause's ceiling label.  Everything is add-only; nothing is ever
rewritten or removed, and signs are values: a combinator returns a new sign
and leaves its daughters as they were.
"""

from __future__ import annotations

from typing import Optional

from .core import (
    Label, LS, Predicate, SubordConstraint, UDRSError, check_udrs, conditional,
    identity, make_udrs, merge, top_label, weak,
)
from .delay import PendingKey, PendingRegistry, dref_res
from .grammar import (
    COORD, FUNCTIONAL, HEAD_COMP, HEAD_SUBJ, LEXICAL, SILENT, DerivationNode,
)
from .lexicon import Lexicon, Sign, SubcatSlot, entry_complementizer, entry_noun
from . import plurals


class SubcatMismatch(UDRSError):
    pass


class SemanticsError(UDRSError):
    pass


class Derivation:
    """Shared state of one derivation: top label, plural-key log, knowledge."""

    def __init__(self, lexicon: Lexicon, top: Label, registry: PendingRegistry,
                 rules: "plurals.KnowledgeRules"):
        self.lexicon = lexicon
        self.top = top
        self.registry = registry
        self.rules = rules

    @classmethod
    def new(cls, lexicon: Optional[Lexicon] = None,
            rules: Optional["plurals.KnowledgeRules"] = None) -> "Derivation":
        return cls(lexicon or Lexicon.default(), top_label(), PendingRegistry(),
                   rules or plurals.KnowledgeRules())


def _comp_cat(head: Sign, slot: SubcatSlot) -> str:
    """A head's category once slot, one of its complements, is filled."""
    if head.cat == "v" and all(s.role != "comp" or s is slot for s in head.subcat):
        return "vp"
    return head.cat


def _combine_argument(head: Sign, comp: Sign, slot: SubcatSlot, cat: str,
                      ctx: Derivation) -> Sign:
    """Clauses I-V plus argument-slot linking, for one NP argument; the
    result is the head with slot filled, of category cat."""
    if comp.cat != "np" or not comp.saturated:
        raise SubcatMismatch(f"expected saturated NP, got {comp.cat}")

    subord, conds, bindings = merge(head.udrs, comp.udrs)  # I, II
    ls = head.udrs.ls                                    # III
    np_max, np_min = comp.udrs.ls.l_max, comp.udrs.ls.l_min
    delta: list[SubordConstraint] = [
        weak(np_min, head.udrs.ls.l_min)]                # IV: verb below arg min
    if identity(np_max, np_min) not in comp.udrs.subord:  # V: conditional ceiling
        delta.append(conditional(np_max, np_min, head.udrs.ls.l_max, np_max))

    outcome = dref_res(comp.udrs)                        # link the argument
    if isinstance(outcome, PendingKey):
        ctx.registry.register(outcome)
    bindings[slot.arg] = outcome
    u = make_udrs(ls, subord | set(delta), conds, bindings)

    if (isinstance(outcome, PendingKey) and head.collective_subject
            and slot.role == "subj"):
        # lexical directive (e.g. "gathered"): the subject must be collective
        u = plurals.pl_dis_collective(u, outcome)

    return head.fill(slot, cat, u)


def combine_head_comp(head: Sign, comp: Sign, ctx: Derivation) -> Sign:
    """Fill the head's next complement slot with comp.

    Determiner-noun combination only links the noun's predicate into the
    determiner's structure; verb-argument combination applies the full
    clause set; clausal complements contribute the cross-clause cap that
    keeps embedded material below the matrix verb.
    """
    slot = head.next_comp_slot()
    if slot is None:
        raise SubcatMismatch(f"{head.cat} sign has no open complement slot")

    if slot.expects == "noun":
        return _combine_det_noun(head, comp, slot)

    if slot.expects == "clause":
        if comp.cat != "cs":
            raise SubcatMismatch(f"expected complementizer clause, got {comp.cat}")
        subord, conds, bindings = merge(head.udrs, comp.udrs)
        cap = weak(head.udrs.ls.l_min, comp.udrs.ls.l_max)
        u = make_udrs(head.udrs.ls, subord | {cap}, conds, bindings)
        return head.fill(slot, _comp_cat(head, slot), u)

    return _combine_argument(head, comp, slot, _comp_cat(head, slot), ctx)


def _combine_det_noun(det: Sign, noun: Sign, slot: SubcatSlot) -> Sign:
    if noun.cat != "n":
        raise SubcatMismatch(f"determiner expects a noun, got {noun.cat}")
    if slot.agr and noun.agr and slot.agr != noun.agr:
        raise SubcatMismatch(f"agreement mismatch: {slot.agr} det, {noun.agr} noun")
    noun = bind_noun(noun, slot)
    u = make_udrs(det.udrs.ls, *merge(det.udrs, noun.udrs))
    return det.fill(slot, "np", u)


def bind_noun(noun: Sign, slot: SubcatSlot) -> Sign:
    """Coindex the noun's predicate with the determiner's label and referent."""
    pred = next(c for c in noun.udrs.conds if isinstance(c, Predicate))
    if pred.label == slot.bind_label:
        return noun  # already instantiated against this determiner
    return entry_noun(pred.rel, noun.word, noun.agr or "sg",
                      label=slot.bind_label, dref=slot.bind_dref)


def combine_head_subj(head: Sign, subj: Sign, ctx: Derivation) -> Sign:
    """Same clauses as complement combination, on the nominative slot."""
    slot = head.subj_slot()
    if slot is None:
        raise SubcatMismatch(f"{head.cat} sign has no open subject slot")
    return _combine_argument(head, subj, slot, "s", ctx)


def combine_functional(func: Sign, comp: Sign, ctx: Derivation) -> Sign:
    """Functional head: adopt the complement's distinguished labels.

    The complement clause's maximal label becomes the scope ceiling: the
    root silent complementizer identifies it with the discourse top and
    closes the sign (every mentioned label goes below top); "that" keeps it
    as a fresh embedded ceiling for the matrix verb to cap.
    """
    slot = func.next_comp_slot()
    if func.cat != "comp" or slot is None:
        raise SubcatMismatch(f"complementizer with an open slot expected, got {func.cat}")
    if comp.cat != "s":
        raise SubcatMismatch(f"complementizer expects a finite clause, got {comp.cat}")
    ceiling = comp.udrs.ls.l_max
    subord = set(comp.udrs.subord)
    delta = [weak(ceiling, comp.udrs.ls.l_min)]  # ceiling bounds the clause's min
    is_root = func.word is None
    if is_root:
        delta.append(identity(ceiling, ctx.top))
        mentioned = comp.udrs.labels() | {ceiling}
        for l in sorted(mentioned, key=lambda l: l.uid):
            if not l.is_top:
                delta.append(weak(ctx.top, l))
    u = make_udrs(comp.udrs.ls, subord | set(delta), comp.udrs.conds,
                  comp.udrs.bindings)
    return func.fill(slot, "s" if is_root else "cs", u)


def combine_coord(left: Sign, right: Sign, ctx: Derivation) -> Sign:
    """Discourse sequencing, the designated site for plural disambiguation.

    Each sentence's root complementizer has already put every label it
    mentions below the discourse top, so the union adds only what the
    plural rules decide.
    """
    u = make_udrs(LS(ctx.top, ctx.top), *merge(left.udrs, right.udrs))
    u = plurals.apply_pending_decisions(
        u, ctx.registry, ctx.rules, [(s.udrs, s.cat == "disc") for s in (left, right)])
    return Sign("disc", (), u)


def empty_discourse(ctx: Derivation) -> Sign:
    return Sign("disc", (), make_udrs(LS(ctx.top, ctx.top)))


def interpret(tree: DerivationNode, ctx: Optional[Derivation] = None) -> Sign:
    """Interpret a derivation bottom-up into its root sign.

    Fills each node's sign; validates the result's semilattice invariants.
    """
    if ctx is None:
        ctx = Derivation.new()
    sign = _interpret(tree, ctx)
    violations = check_udrs(sign.udrs)
    if violations:
        raise SemanticsError("; ".join(v.detail for v in violations))
    return sign


def _interpret(node: DerivationNode, ctx: Derivation) -> Sign:
    if node.construction == LEXICAL:
        if node.word == SILENT:
            node.sign = entry_complementizer(None)
        else:
            node.sign = ctx.lexicon.sign(node.word)
        return node.sign

    head = _interpret(node.head, ctx)

    if node.construction == HEAD_COMP:
        slot = head.next_comp_slot()
        if (slot is not None and slot.expects == "noun"
                and node.nonhead.construction == LEXICAL):
            # instantiate the noun against the determiner's coindexation, here
            # because criterion 5 makes each node's conditions its daughters' union
            entry = ctx.lexicon.entry(node.nonhead.word)
            node.nonhead.sign = entry_noun(entry.rel, entry.word, entry.agr,
                                           label=slot.bind_label, dref=slot.bind_dref)
            comp = node.nonhead.sign
        else:
            comp = _interpret(node.nonhead, ctx)
        node.sign = combine_head_comp(head, comp, ctx)
    elif node.construction == HEAD_SUBJ:
        subj = _interpret(node.nonhead, ctx)
        node.sign = combine_head_subj(head, subj, ctx)
    elif node.construction == FUNCTIONAL:
        comp = _interpret(node.nonhead, ctx)
        node.sign = combine_functional(head, comp, ctx)
    elif node.construction == COORD:
        right = _interpret(node.nonhead, ctx)
        node.sign = combine_coord(head, right, ctx)
    else:
        raise SemanticsError(f"unknown construction {node.construction!r}")
    return node.sign
