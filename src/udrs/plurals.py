"""Monotonic collective/distributive disambiguation of plural NPs.

An underspecified plural holds a weak subordination between its
distinguished labels, and the verb argument linked to it is bound to the
NP's pending key, ``dref_res(l_max, l_min)``.  That key names the plural
everywhere here: the group is read off the UDRS, as the referent introduced
at l_max.  Disambiguation only ever adds, and returns a new UDRS:
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

from typing import Optional, Sequence

from .core import (
    DISTRIBUTION, GROUP, Condition, DiscourseReferent, Label, Membership,
    Predicate, Quantifier, ReferentIntro, UDRS, UDRSError, fresh_label,
    fresh_referent, identity, make_udrs, read_text, strict,
)
from .delay import PendingKey, PendingRegistry

COLLECTIVE = "collective"
DISTRIBUTIVE = "distributive"
UNKNOWN = "unknown"


class NotPlural(UDRSError):
    pass


class AlreadyDisambiguated(UDRSError):
    pass


def _names(u: UDRS, *labels: Label) -> str:
    from .serialize import display_names  # only diagnostics need the names
    names = display_names(u)
    return "/".join(names.get(l, repr(l)) for l in labels)


def _group(u: UDRS, key: PendingKey) -> DiscourseReferent:
    """The group referent the plural NP introduces at its maximal label."""
    intro = u.find_intro(key.np_l_max)
    if intro is None or intro.dref.sort != GROUP:
        raise NotPlural(f"no group referent introduced at {_names(u, key.np_l_max)}")
    return intro.dref


def _check_key(u: UDRS, key: PendingKey) -> DiscourseReferent:
    """The group of a plural whose argument still waits on its key.

    Only pl_dis_* strengthen a plural's weak subordination, and each binds
    the key as it does, so a bound key is exactly an NP whose labels the
    closure already relates by identity or strict subordination.
    """
    group = _group(u, key)
    if key in u.bindings:
        raise _already_classified(u, key)
    if key not in u.bindings.values():
        raise NotPlural(f"no argument waits on {_names(u, *key)}")
    return group


def _already_classified(u: UDRS, key: PendingKey) -> AlreadyDisambiguated:
    return AlreadyDisambiguated(f"{_names(u, *key)} already classified")


def pl_dis_collective(u: UDRS, key: PendingKey) -> UDRS:
    """Strengthen the plural's weak subordination to identity."""
    group = _check_key(u, key)
    return make_udrs(u.ls, u.subord | {identity(*key)}, u.conds,
                     u.bindings | {key: group})


def pl_dis_distributive(u: UDRS, key: PendingKey) -> UDRS:
    """Add a distribution duplex quantifying over members of the group.

    The added strict subordination turns the NP scope bearing, which also
    activates any conditional ceiling constraint waiting on it.
    """
    group = _check_key(u, key)
    l_max, l_min = key
    l11 = fresh_label()
    x = fresh_referent()
    added: list[Condition] = [
        Quantifier(l_max, DISTRIBUTION, l11, l_min),
        ReferentIntro(l11, x),
        Membership(l11, x, group),
    ]
    return make_udrs(
        u.ls, u.subord | {strict(l_max, l11), strict(l_max, l_min)},
        u.conds | set(added), u.bindings | {key: x})


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


def decide(context: UDRS, key: PendingKey,
           rules: Optional[KnowledgeRules] = None,
           index: Optional[int] = None) -> str:
    """The verdict of the configured knowledge sources: COLLECTIVE,
    DISTRIBUTIVE, or UNKNOWN by default.

    ``index`` is the plural's 1-based number in the key log, which
    directives are keyed by.
    """
    if rules is None:
        return UNKNOWN
    override = rules.overrides.get(index)
    if override:
        return override
    if not rules.subject_rules and not rules.continuation_rules:
        return UNKNOWN  # directives only: the discourse cannot decide it
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
        parts: Sequence[tuple[UDRS, bool]]) -> UDRS:
    """Disambiguate every pending plural the knowledge source can decide.

    parts are the UDRSs u sequences, each with whether it is a discourse,
    whose plurals were tried when it was sequenced.  Those are tried again
    only where another part adds a predicate that can change their verdict
    (_waiting), so as a discourse grows a sentence at a time each plural is
    tried at most twice.  One pass in key order decides all it can: disambiguating a
    plural binds only its own key and adds no predicate, so it changes no
    other plural's verdict.  A directive on a plural that is already
    classified the other way (by its verb, e.g. "gathered") is a conflict
    and raises.  Returns the new UDRS, u itself when nothing was decided.
    """
    keys = registry.all_keys()
    if not keys:
        return u
    waiting = _waiting(u, rules, parts)
    for index, key in enumerate(keys, 1):
        if key in u.bindings:
            directive = rules.overrides.get(index)
            if directive and directive != _classified(u, key):
                raise _already_classified(u, key)
        elif key in waiting:
            verdict = decide(u, key, rules, index)
            if verdict != UNKNOWN:
                u = DISAMBIGUATE[verdict](u, key)
    return u


def _waiting(u: UDRS, rules: KnowledgeRules, parts: Sequence[tuple[UDRS, bool]]) -> set:
    """The plurals of parts the rules may decide in u: every plural of a
    part not tried yet; of a tried part, every plural where another part
    predicates a continuation rule's rel, else those another part makes
    the subject of a subject rule's verb."""
    waiting = set()
    for part, tried in parts:
        preds = [c for other, _ in parts if other is not part
                 for c in other.conds if isinstance(c, Predicate)] if tried else []
        if not tried or any(c.rel in rules.continuation_rules for c in preds):
            waiting.update(part.bindings.values())
        else:
            waiting.update(u.resolve(c.args[0]) for c in preds
                           if c.rel in rules.subject_rules and c.args)
    return waiting


def _classified(u: UDRS, key: PendingKey) -> str:
    """The reading a disambiguated plural got: its key is bound to the group
    itself (collective) or to a member of it (distributive)."""
    return COLLECTIVE if u.bindings[key] == _group(u, key) else DISTRIBUTIVE
