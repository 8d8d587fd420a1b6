"""Underspecified discourse representation structures for a small English
fragment: principle-based construction, monotonic plural disambiguation, and
an indexed, closure-pruned search for the fully scoped readings."""

from .core import (
    CONDITIONAL, DISTRIBUTION, EVERY, GROUP, IDENTITY, INDIVIDUAL, STRICT,
    WEAK, Condition, CycleError, DiscourseReferent, Label, LS, Membership,
    Predicate, Quantifier, ReferentIntro, Slot, SubordConstraint, UDRS,
    UDRSError, Violation, check_udrs, closure, conditional, fresh_label,
    fresh_referent, fresh_slot, identity, make_udrs, merge, strict, top_label,
    weak,
)
from .delay import MalformedNP, PendingKey, PendingRegistry, dref_res
from .lexicon import Lexicon, Sign, SubcatSlot, UnknownWord
from .grammar import (
    SEP, DerivationNode, ParseFailure, parse, tokenize, yield_tokens,
)
from .principles import (
    CombinatorResult, Derivation, SemanticsError, SubcatMismatch,
    combine_coord, combine_functional, combine_head_comp, combine_head_subj,
    interpret,
)
from .plurals import (
    COLLECTIVE, DISTRIBUTIVE, UNKNOWN, AlreadyDisambiguated, KnowledgeRules,
    NotPlural, PluralTarget, decide, pl_dis_collective,
    pl_dis_distributive, target_for,
)
from .readings import (
    DRS, DuplexCondition, InconsistentConstraints, Scoping, UnresolvedSlot,
    build_drs, canonical_form, check_binding, count_readings,
    enumerate_readings, enumerate_scopings, render_drs,
)
from .serialize import from_json, render_text, to_dot, to_json, to_json_str
from .cli import Session, build_session

__all__ = [name for name in dir() if not name.startswith("_")]
