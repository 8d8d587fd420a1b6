"""Underspecified discourse representation structures for a small English
fragment: principle-based construction, monotonic plural disambiguation, and
an indexed, closure-pruned search for the fully scoped readings.

Importing the package loads only the construction layers.  The reading
layer (``readings``, and ``scoping`` and ``canonical`` under it) and
``serialize`` load on first use, here or in ``cli``: a process that runs
without cached bytecode compiles every module it imports, and building a
UDRS needs neither readings nor documents.
"""

from importlib import import_module

from .core import (
    CONDITIONAL, DISTRIBUTION, EVERY, GROUP, IDENTITY, INDIVIDUAL, STRICT,
    WEAK, Condition, CycleError, DiscourseReferent, InconsistentConstraints,
    Label, LS, Membership, Predicate, Quantifier, ReferentIntro, Slot,
    SubordConstraint, UDRS, UDRSError, Violation, check_udrs, closure,
    conditional, fresh_label, fresh_referent, fresh_slot, identity, make_udrs,
    strict, top_label, weak,
)
from .delay import MalformedNP, PendingKey
from .lexicon import Lexicon, UnknownWord
from .grammar import ParseFailure, parse, tokenize
from .principles import SemanticsError, SubcatMismatch
from .plurals import (
    COLLECTIVE, DISTRIBUTIVE, AlreadyDisambiguated, KnowledgeRules, NotPlural,
    pl_dis_collective, pl_dis_distributive,
)
from .cli import Session, build_session

_ON_FIRST_USE = {
    **dict.fromkeys([
        "DRS", "DuplexCondition", "UnresolvedSlot", "build_drs", "canonical_form",
        "check_binding", "count_readings", "enumerate_readings", "enumerate_scopings",
        "render_drs"], "readings"),
    **dict.fromkeys([
        "from_json", "render_text", "to_dot", "to_json", "to_json_str"], "serialize"),
}

__all__ = [
    "CONDITIONAL", "DISTRIBUTION", "EVERY", "GROUP", "IDENTITY", "INDIVIDUAL",
    "STRICT", "WEAK", "Condition", "CycleError", "DiscourseReferent", "Label",
    "LS", "Membership", "Predicate", "Quantifier", "ReferentIntro", "Slot",
    "SubordConstraint", "UDRS", "UDRSError", "Violation", "check_udrs",
    "closure", "conditional", "fresh_label", "fresh_referent", "fresh_slot",
    "identity", "make_udrs", "strict", "top_label", "weak",
    "MalformedNP", "PendingKey", "Lexicon", "UnknownWord", "ParseFailure",
    "parse", "tokenize", "SemanticsError", "SubcatMismatch", "COLLECTIVE",
    "DISTRIBUTIVE", "AlreadyDisambiguated", "KnowledgeRules", "NotPlural",
    "pl_dis_collective", "pl_dis_distributive", "DRS",
    "DuplexCondition", "InconsistentConstraints", "UnresolvedSlot",
    "build_drs", "canonical_form", "check_binding", "count_readings",
    "enumerate_readings", "enumerate_scopings", "render_drs", "from_json",
    "render_text", "to_dot", "to_json", "to_json_str", "Session",
    "build_session",
]


def __getattr__(name: str):
    """Import the module behind a reading or serialization name on its
    first use, and keep the name here (PEP 562)."""
    if name not in _ON_FIRST_USE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{_ON_FIRST_USE[name]}")
    globals()[name] = value = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
