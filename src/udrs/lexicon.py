"""Lexical signs for the fragment vocabulary.

Every call instantiates an entry with fresh labels and referents, so two
uses of the same word never share structure.  The vocabulary is loaded from
a plain-text file, one entry per line: ``word POS rel [flags]`` with flags
``pl`` and ``collective-only``; a built-in fragment ships as the default.
Only ``_TAGS`` knows the POS tags.  An NP's kind is the one constraint its
determiner, name or pronoun puts between its l_max and l_min: identity (not
scope bearing), strict (a quantifier) or weak (an underspecified plural).
"""

from __future__ import annotations

import functools
import os
from typing import Callable, NamedTuple, Optional

from .core import (
    GROUP, DiscourseReferent, Label, LS, Predicate, Quantifier, ReferentIntro,
    Slot, UDRS, UDRSError, fresh_label, fresh_referent, fresh_slot,
    identity, make_udrs, read_text, strict, weak, EVERY,
)


class UnknownWord(UDRSError):
    pass


class LexiconError(UDRSError):
    pass


class SubcatSlot(NamedTuple):
    """One expected argument of a sign.

    ``expects`` is "np", "clause" or "noun".  NP slots carry the verb's
    argument Slot, which linking binds; a determiner's noun slot instead carries the label and
    referent the noun's predicate must be bound to.
    """

    role: str                 # "subj" | "comp"
    expects: str              # "np" | "clause" | "noun"
    agr: Optional[str] = None
    arg: Optional[Slot] = None
    bind_label: Optional[Label] = None
    bind_dref: Optional[DiscourseReferent] = None


class Sign(NamedTuple):
    """A sign is a value: ``subcat`` holds its open slots only, and filling
    one gives a new sign without it."""

    cat: str                  # det, n, np, v, vp, s, comp, cs, disc
    subcat: tuple[SubcatSlot, ...]
    udrs: UDRS
    agr: Optional[str] = None  # a noun's number, "sg" | "pl"
    word: Optional[str] = None
    collective_subject: bool = False  # lexical directive, e.g. "gathered"

    def next_comp_slot(self) -> Optional[SubcatSlot]:
        for slot in reversed(self.subcat):
            if slot.role == "comp":
                return slot
        return None

    def subj_slot(self) -> Optional[SubcatSlot]:
        for slot in self.subcat:
            if slot.role == "subj":
                return slot
        return None

    @property
    def saturated(self) -> bool:
        return not self.subcat

    def fill(self, slot: SubcatSlot, cat: str, udrs: UDRS) -> "Sign":
        """A new sign: this one with slot filled, of category cat."""
        return Sign(cat, tuple(s for s in self.subcat if s is not slot),
                    udrs, self.agr, self.word, self.collective_subject)


# --- Entry constructors -------------------------------------------------------

def _verb_sign(rel: str, slots: list[SubcatSlot], args: tuple[Slot, ...],
               word: Optional[str] = None, collective_subject: bool = False) -> Sign:
    l_verb = fresh_label()
    l_ceiling = fresh_label()  # scope ceiling, bound later by the functional head
    u = make_udrs(LS(l_ceiling, l_verb), (), [Predicate(l_verb, rel, args)])
    return Sign("v", tuple(slots), u, word=word,
                collective_subject=collective_subject)


def entry_transitive_verb(rel: str, word: Optional[str] = None,
                          collective_subject: bool = False) -> Sign:
    subj, obj = fresh_slot(), fresh_slot()
    return _verb_sign(rel, [
        SubcatSlot("subj", "np", arg=subj),
        SubcatSlot("comp", "np", arg=obj),
    ], (subj, obj), word, collective_subject)


def entry_intransitive_verb(rel: str, word: Optional[str] = None,
                            collective_subject: bool = False) -> Sign:
    subj = fresh_slot()
    return _verb_sign(rel, [SubcatSlot("subj", "np", arg=subj)],
                      (subj,), word, collective_subject)


def entry_clause_verb(rel: str, word: Optional[str] = None,
                      collective_subject: bool = False) -> Sign:
    subj = fresh_slot()
    return _verb_sign(rel, [
        SubcatSlot("subj", "np", arg=subj),
        SubcatSlot("comp", "clause"),
    ], (subj,), word, collective_subject)


def entry_quant_det(word: str = "every") -> Sign:
    l1, l11, l12 = fresh_label(), fresh_label(), fresh_label()
    x = fresh_referent()
    u = make_udrs(LS(l1, l12),
                  [strict(l1, l11), strict(l1, l12)],
                  [Quantifier(l1, EVERY, l11, l12), ReferentIntro(l11, x)])
    slot = SubcatSlot("comp", "noun", agr="sg", bind_label=l11, bind_dref=x)
    return Sign("det", (slot,), u, word=word)


def entry_indef_det(word: str = "a") -> Sign:
    l1, l12 = fresh_label(), fresh_label()
    x = fresh_referent()
    u = make_udrs(LS(l1, l12), [identity(l1, l12)], [ReferentIntro(l1, x)])
    slot = SubcatSlot("comp", "noun", agr="sg", bind_label=l12, bind_dref=x)
    return Sign("det", (slot,), u, word=word)


def entry_plural_det(word: str = "the") -> Sign:
    l1, l12 = fresh_label(), fresh_label()
    x = fresh_referent(GROUP)
    u = make_udrs(LS(l1, l12), [weak(l1, l12)], [ReferentIntro(l1, x)])
    slot = SubcatSlot("comp", "noun", agr="pl", bind_label=l1, bind_dref=x)
    return Sign("det", (slot,), u, word=word)


def entry_noun(rel: str, word: Optional[str] = None, agr: str = "sg",
               label: Optional[Label] = None,
               dref: Optional[DiscourseReferent] = None) -> Sign:
    """Common noun: one predicate condition.

    Label and referent default to fresh placeholders; the selecting
    determiner binds them through its subcat slot.
    """
    l = label if label is not None else fresh_label()
    x = dref if dref is not None else fresh_referent()
    u = make_udrs(LS(l, l), (), [Predicate(l, rel, (x,))])
    return Sign("n", (), u, agr=agr, word=word)


def entry_name(rel: str, word: Optional[str] = None) -> Sign:
    l1, l12 = fresh_label(), fresh_label()
    x = fresh_referent()
    u = make_udrs(LS(l1, l12), [identity(l1, l12)],
                  [ReferentIntro(l1, x), Predicate(l1, rel, (x,))])
    return Sign("np", (), u, word=word)


def entry_pronoun(word: str = "they") -> Sign:
    # Placeholder referent; anaphora resolution is out of scope.
    l1, l12 = fresh_label(), fresh_label()
    x = fresh_referent()
    u = make_udrs(LS(l1, l12), [identity(l1, l12)], [ReferentIntro(l1, x)])
    return Sign("np", (), u, word=word)


def entry_complementizer(word: Optional[str] = None) -> Sign:
    """"that" or the silent root complementizer: no conditions of its own."""
    u = make_udrs(LS(fresh_label(), fresh_label()))
    slot = SubcatSlot("comp", "clause")
    return Sign("comp", (slot,), u, word=word)


# --- Vocabulary ----------------------------------------------------------------

class VocabEntry(NamedTuple):
    word: str
    pos: str
    rel: Optional[str]
    plural: bool = False
    collective_only: bool = False

    @property
    def agr(self) -> str:
        return "pl" if self.plural else "sg"


class _Tag(NamedTuple):
    """What one POS tag makes of a vocabulary entry."""

    category: Callable[[VocabEntry], tuple]  # its lexical category in the grammar
    sign: Callable[[VocabEntry], Sign]       # a fresh sign
    needs_rel: bool                          # False: the rel may be '-'


_TAGS: dict[str, _Tag] = {
    "det-quant": _Tag(lambda e: ("det", "sg"), lambda e: entry_quant_det(e.word), False),
    "det-indef": _Tag(lambda e: ("det", "sg"), lambda e: entry_indef_det(e.word), False),
    "det-pl": _Tag(lambda e: ("det", "pl"), lambda e: entry_plural_det(e.word), False),
    "noun": _Tag(lambda e: ("n", e.agr), lambda e: entry_noun(e.rel, e.word, e.agr), True),
    "name": _Tag(lambda e: ("np", "sg"), lambda e: entry_name(e.rel, e.word), True),
    "pron": _Tag(lambda e: ("np", "pl"), lambda e: entry_pronoun(e.word), False),
    "verb-trans": _Tag(lambda e: ("v", "trans"), lambda e: entry_transitive_verb(
        e.rel, e.word, e.collective_only), True),
    "verb-intrans": _Tag(lambda e: ("v", "intrans"), lambda e: entry_intransitive_verb(
        e.rel, e.word, e.collective_only), True),
    "verb-clause": _Tag(lambda e: ("v", "clause"), lambda e: entry_clause_verb(
        e.rel, e.word, e.collective_only), True),
    "comp": _Tag(lambda e: ("comp",), lambda e: entry_complementizer(e.word), False),
}


class Lexicon:
    def __init__(self, entries: list[VocabEntry]):
        self._entries: dict[str, VocabEntry] = {}
        for e in entries:
            self._entries[e.word] = e

    @classmethod
    def from_file(cls, path: str) -> "Lexicon":
        return cls(_parse_lex(read_text(path), path))

    @classmethod
    @functools.cache
    def default(cls) -> "Lexicon":
        """The built-in fragment, parsed once per process and then shared."""
        path = os.path.join(os.path.dirname(__file__), "data", "fragment.lex")
        return cls(_parse_lex(read_text(path), "<default>"))

    def __contains__(self, word: str) -> bool:
        return word in self._entries

    def entry(self, word: str) -> VocabEntry:
        try:
            return self._entries[word]
        except KeyError:
            raise UnknownWord(word) from None

    def category(self, word: str) -> tuple:
        """The word's lexical category in the grammar, e.g. ("det", "sg")."""
        e = self.entry(word)
        return _TAGS[e.pos].category(e)

    def sign(self, word: str) -> Sign:
        """Instantiate a fresh sign for a word."""
        e = self.entry(word)
        return _TAGS[e.pos].sign(e)


def _parse_lex(text: str, origin: str) -> list[VocabEntry]:
    entries = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) < 3:
            raise LexiconError(f"{origin}:{lineno}: expected 'word POS rel [flags]'")
        word, pos, rel, *flags = fields
        if pos not in _TAGS:
            raise LexiconError(f"{origin}:{lineno}: unknown POS {pos!r}")
        bad = set(flags) - {"pl", "collective-only"}
        if bad:
            raise LexiconError(f"{origin}:{lineno}: unknown flags {sorted(bad)}")
        if rel == "-" and _TAGS[pos].needs_rel:
            raise LexiconError(f"{origin}:{lineno}: a {pos} entry needs a rel, not '-'")
        entries.append(VocabEntry(
            word=word.lower(), pos=pos,
            rel=None if rel == "-" else rel,
            plural="pl" in flags,
            collective_only="collective-only" in flags))
    return entries
