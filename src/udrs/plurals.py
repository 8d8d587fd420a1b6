"""Monotonic collective/distributive disambiguation of plural NPs.

An underspecified plural holds a weak subordination between its
distinguished labels, and the verb argument linked to it is bound to the
NP's pending key.  Disambiguation only ever adds, and returns a new UDRS:
the collective reading strengthens the weak relation to identity and binds
the key to the group; the distributive reading adds a distribution duplex
whose restrictor introduces a fresh individual that is a member of the
group, and binds the key to that individual.  A key is bound exactly when
the plural is classified, so that check is a lookup.

What counts as "enough information" is a pluggable rule registry: user
directives, subject rules and continuation rules, applied during discourse
sequencing.  A lexical directive (a ``collective-only`` verb such as
"gathered") is applied earlier, when the verb links its subject. Genuine
pragmatic inference is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (
    DISTRIBUTION, GROUP, Condition, DiscourseReferent, Label, Membership,
    Predicate, Quantifier, ReferentIntro, SubordConstraint, UDRS, UDRSError,
    fresh_label, fresh_referent, identity, make_udrs, read_text, strict,
)
from .delay import PendingKey, PendingRegistry
from .serialize import display_names

COLLECTIVE = "collective"
DISTRIBUTIVE = "distributive"
UNKNOWN = "unknown"


class NotPlural(UDRSError):
    pass


class AlreadyDisambiguated(UDRSError):
    pass


@dataclass(frozen=True)
class PluralTarget:
    l_max: Label
    l_min: Label
    group: DiscourseReferent

    @property
    def key(self) -> PendingKey:
        return PendingKey(self.l_max, self.l_min)


def _names(u: UDRS, *labels: Label) -> str:
    names = display_names(u)
    return "/".join(names.get(l, repr(l)) for l in labels)


def target_for(u: UDRS, l_max: Label, l_min: Label) -> PluralTarget:
    intro = u.find_intro(l_max)
    if intro is None or intro.dref.sort != GROUP:
        raise NotPlural(f"no group referent introduced at {_names(u, l_max)}")
    return PluralTarget(l_max, l_min, intro.dref)


def _check_target(u: UDRS, target: PluralTarget) -> None:
    """The target is a plural whose argument still waits on its key.

    Only pl_dis_* strengthen a plural's weak subordination, and each binds
    the key as it does, so a bound key is exactly an NP whose labels the
    closure already relates by identity or strict subordination.
    """
    target_for(u, target.l_max, target.l_min)
    key = target.key
    if key in u.bindings:
        raise _already_classified(u, target)
    if key not in u.bindings.values():
        raise NotPlural(f"no argument waits on {_names(u, target.l_max, target.l_min)}")


def _already_classified(u: UDRS, target: PluralTarget) -> AlreadyDisambiguated:
    return AlreadyDisambiguated(
        f"{_names(u, target.l_max, target.l_min)} already classified")


def pl_dis_collective(u: UDRS, target: PluralTarget) -> UDRS:
    """Strengthen the plural's weak subordination to identity."""
    _check_target(u, target)
    return make_udrs(u.ls, u.subord | {identity(target.l_max, target.l_min)},
                     u.conds, u.bindings | {target.key: target.group})


def pl_dis_distributive(u: UDRS, target: PluralTarget) -> UDRS:
    """Add a distribution duplex quantifying over members of the group.

    The added strict subordination turns the NP scope bearing, which also
    activates any conditional ceiling constraint waiting on it.
    """
    _check_target(u, target)
    l11 = fresh_label()
    x = fresh_referent()
    added: list[Condition] = [
        Quantifier(target.l_max, DISTRIBUTION, l11, target.l_min),
        ReferentIntro(l11, x),
        Membership(l11, x, target.group),
    ]
    return make_udrs(
        u.ls,
        u.subord | {strict(target.l_max, l11), strict(target.l_max, target.l_min)},
        u.conds | set(added), u.bindings | {target.key: x})


DISAMBIGUATE = {COLLECTIVE: pl_dis_collective, DISTRIBUTIVE: pl_dis_distributive}


# --- Knowledge interface -------------------------------------------------------

class KnowledgeRules:
    """Rule registry deciding when a plural reading is forced.

    Sources, in priority order: explicit directives keyed by the 1-based
    plural-NP index (``np<k>``, counted in the derivation's key log), subject
    rules keyed by verb relation (``verb gather subject collective``), and
    continuation rules that fire once a predicate appears anywhere in the
    accumulated discourse.
    """

    def __init__(self):
        self.subject_rules: dict[str, str] = {}
        self.continuation_rules: dict[str, str] = {}
        self.overrides: dict[int, str] = {}

    def with_overrides(self, overrides: dict[int, str]) -> "KnowledgeRules":
        """A copy of these rules with the given directives added."""
        rules = KnowledgeRules()
        rules.subject_rules = dict(self.subject_rules)
        rules.continuation_rules = dict(self.continuation_rules)
        rules.overrides = {**self.overrides, **overrides}
        return rules

    @classmethod
    def from_file(cls, path: str) -> "KnowledgeRules":
        rules = cls()
        for lineno, raw in enumerate(read_text(path).split("\n"), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if (len(fields) == 4 and fields[0] == "verb"
                    and fields[2] == "subject"
                    and fields[3] in (COLLECTIVE, DISTRIBUTIVE)):
                rules.subject_rules[fields[1]] = fields[3]
            elif (len(fields) == 3 and fields[0] == "continuation"
                    and fields[2] in (COLLECTIVE, DISTRIBUTIVE)):
                rules.continuation_rules[fields[1]] = fields[2]
            else:
                raise UDRSError(f"{path}:{lineno}: cannot parse rule {line!r}")
        return rules


def decide(context: UDRS, target: PluralTarget,
           rules: Optional[KnowledgeRules] = None,
           index: Optional[int] = None) -> str:
    """The verdict of the configured knowledge sources: COLLECTIVE,
    DISTRIBUTIVE, or UNKNOWN by default.

    ``index`` is the target's 1-based plural-NP number, which directives
    are keyed by.
    """
    if rules is None:
        return UNKNOWN
    override = rules.overrides.get(index)
    if override:
        return override
    key = target.key
    rels_present = set()
    for cond in context.conds:
        if not isinstance(cond, Predicate):
            continue
        rels_present.add(cond.rel)
        verdict = rules.subject_rules.get(cond.rel)
        if verdict and cond.args and context.resolve(cond.args[0]) == key:
            return verdict
    for rel, verdict in sorted(rules.continuation_rules.items()):
        if rel in rels_present:
            return verdict
    return UNKNOWN


def apply_pending_decisions(
        u: UDRS, registry: PendingRegistry, rules: KnowledgeRules,
) -> tuple[UDRS, set[SubordConstraint], set[Condition]]:
    """Disambiguate every pending plural the knowledge source can decide.

    One pass in key order decides all it can: disambiguating a plural binds
    only its own key and adds no predicate, so it changes no other plural's
    verdict.  A directive on a plural that is already classified the other
    way (by its verb, e.g. "gathered") is a conflict and raises.  Returns
    the (possibly unchanged) UDRS plus the constraint and condition deltas,
    for tracing and monotonicity checks.
    """
    start = u
    waiting = set(u.bindings.values())
    for index, key in enumerate(registry.all_keys(), 1):
        if key not in waiting:
            continue  # the plural's sentence is not part of this UDRS
        if key in u.bindings:
            directive = rules.overrides.get(index)
            if directive:
                target = target_for(u, key.np_l_max, key.np_l_min)
                if directive != _classified(u, target):
                    raise _already_classified(u, target)
            continue
        target = target_for(u, key.np_l_max, key.np_l_min)
        verdict = decide(u, target, rules, index)
        if verdict != UNKNOWN:
            u = DISAMBIGUATE[verdict](u, target)
    return u, set(u.subord - start.subord), set(u.conds - start.conds)


def _classified(u: UDRS, target: PluralTarget) -> str:
    """The reading a disambiguated plural got: its key is bound to the group
    itself (collective) or to a member of it (distributive)."""
    return COLLECTIVE if u.bindings[target.key] == target.group else DISTRIBUTIVE
