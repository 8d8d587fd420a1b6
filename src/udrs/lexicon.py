"""Lexical signs for the fragment vocabulary.

Every call instantiates an entry with fresh labels and referents, so two
uses of the same word never share structure.  The vocabulary is loaded from
a plain-text file, one entry per line: ``word POS rel [flags]`` with flags
``pl`` and ``collective-only``; a built-in fragment ships as the default.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from .core import (
    GROUP, DiscourseReferent, Label, LS, Predicate, Quantifier, ReferentIntro,
    Slot, UDRS, UDRSError, fresh_label, fresh_referent, fresh_slot,
    identity, make_udrs, read_text, strict, weak, EVERY,
)


class UnknownWord(UDRSError):
    pass


class LexiconError(UDRSError):
    pass


# head types
VERB, QUANT, PLURAL, INDEF, NOUN, NAME, COMP, COORD = (
    "verb", "quant", "plural", "indef", "noun", "name", "comp", "coord")


@dataclass(frozen=True, slots=True)
class SubcatSlot:
    """One expected argument of a sign.

    ``expects`` is "np", "clause" or "noun".  NP slots carry the verb's
    argument Slot, which linking binds; a determiner's noun slot instead carries the label and
    referent the noun's predicate must be bound to.
    """

    role: str                 # "subj" | "comp"
    expects: str              # "np" | "clause" | "noun"
    case: Optional[str] = None
    agr: Optional[str] = None
    arg: Optional[Slot] = None
    bind_label: Optional[Label] = None
    bind_dref: Optional[DiscourseReferent] = None


@dataclass(frozen=True, slots=True)
class Sign:
    """A sign is a value: ``subcat`` holds its open slots only, and filling
    one gives a new sign without it."""

    cat: str                  # det, n, np, v, vp, s, comp, cs, disc
    head_type: str
    subcat: tuple[SubcatSlot, ...]
    udrs: UDRS
    agr: Optional[str] = None
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
        # built directly: dataclasses.replace would double the cost of a fill
        return Sign(cat, self.head_type, tuple(s for s in self.subcat if s is not slot),
                    udrs, self.agr, self.word, self.collective_subject)


# --- Entry constructors -------------------------------------------------------

def _verb_sign(rel: str, slots: list[SubcatSlot], args: tuple[Slot, ...],
               word: Optional[str] = None, collective_subject: bool = False) -> Sign:
    l_verb = fresh_label()
    l_ceiling = fresh_label()  # scope ceiling, bound later by the functional head
    u = make_udrs(LS(l_ceiling, l_verb), (), [Predicate(l_verb, rel, args)])
    return Sign("v", VERB, tuple(slots), u, word=word,
                collective_subject=collective_subject)


def entry_transitive_verb(rel: str, word: Optional[str] = None,
                          collective_subject: bool = False) -> Sign:
    subj, obj = fresh_slot(), fresh_slot()
    return _verb_sign(rel, [
        SubcatSlot("subj", "np", case="nom", arg=subj),
        SubcatSlot("comp", "np", case="acc", arg=obj),
    ], (subj, obj), word, collective_subject)


def entry_intransitive_verb(rel: str, word: Optional[str] = None,
                            collective_subject: bool = False) -> Sign:
    subj = fresh_slot()
    return _verb_sign(rel, [SubcatSlot("subj", "np", case="nom", arg=subj)],
                      (subj,), word, collective_subject)


def entry_clause_verb(rel: str, word: Optional[str] = None,
                      collective_subject: bool = False) -> Sign:
    subj = fresh_slot()
    return _verb_sign(rel, [
        SubcatSlot("subj", "np", case="nom", arg=subj),
        SubcatSlot("comp", "clause"),
    ], (subj,), word, collective_subject)


def entry_quant_det(word: str = "every") -> Sign:
    l1, l11, l12 = fresh_label(), fresh_label(), fresh_label()
    x = fresh_referent()
    u = make_udrs(LS(l1, l12),
                  [strict(l1, l11), strict(l1, l12)],
                  [Quantifier(l1, EVERY, l11, l12), ReferentIntro(l11, x)])
    slot = SubcatSlot("comp", "noun", agr="sg", bind_label=l11, bind_dref=x)
    return Sign("det", QUANT, (slot,), u, agr="sg", word=word)


def entry_indef_det(word: str = "a") -> Sign:
    l1, l12 = fresh_label(), fresh_label()
    x = fresh_referent()
    u = make_udrs(LS(l1, l12), [identity(l1, l12)], [ReferentIntro(l1, x)])
    slot = SubcatSlot("comp", "noun", agr="sg", bind_label=l12, bind_dref=x)
    return Sign("det", INDEF, (slot,), u, agr="sg", word=word)


def entry_plural_det(word: str = "the") -> Sign:
    l1, l12 = fresh_label(), fresh_label()
    x = fresh_referent(GROUP)
    u = make_udrs(LS(l1, l12), [weak(l1, l12)], [ReferentIntro(l1, x)])
    slot = SubcatSlot("comp", "noun", agr="pl", bind_label=l1, bind_dref=x)
    return Sign("det", PLURAL, (slot,), u, agr="pl", word=word)


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
    return Sign("n", NOUN, (), u, agr=agr, word=word)


def entry_name(rel: str, word: Optional[str] = None) -> Sign:
    l1, l12 = fresh_label(), fresh_label()
    x = fresh_referent()
    u = make_udrs(LS(l1, l12), [identity(l1, l12)],
                  [ReferentIntro(l1, x), Predicate(l1, rel, (x,))])
    return Sign("np", NAME, (), u, agr="sg", word=word)


def entry_pronoun(word: str = "they") -> Sign:
    # Placeholder referent; anaphora resolution is out of scope.
    l1, l12 = fresh_label(), fresh_label()
    x = fresh_referent()
    u = make_udrs(LS(l1, l12), [identity(l1, l12)], [ReferentIntro(l1, x)])
    return Sign("np", NAME, (), u, agr="pl", word=word)


def entry_complementizer(word: Optional[str] = None) -> Sign:
    """"that" or the silent root complementizer: no conditions of its own."""
    u = make_udrs(LS(fresh_label(), fresh_label()))
    slot = SubcatSlot("comp", "clause")
    return Sign("comp", COMP, (slot,), u, word=word)


# --- Vocabulary ----------------------------------------------------------------

_POS_TAGS = {"det-quant", "det-indef", "det-pl", "noun", "name", "pron",
             "verb-trans", "verb-intrans", "verb-clause", "comp"}


@dataclass(frozen=True)
class VocabEntry:
    word: str
    pos: str
    rel: Optional[str]
    plural: bool = False
    collective_only: bool = False


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
        text = resources.files("udrs.data").joinpath("fragment.lex").read_text("utf-8")
        return cls(_parse_lex(text, "<default>"))

    def __contains__(self, word: str) -> bool:
        return word in self._entries

    def entry(self, word: str) -> VocabEntry:
        try:
            return self._entries[word]
        except KeyError:
            raise UnknownWord(word) from None

    def sign(self, word: str) -> Sign:
        """Instantiate a fresh sign for a word."""
        e = self.entry(word)
        if e.pos == "det-quant":
            return entry_quant_det(e.word)
        if e.pos == "det-indef":
            return entry_indef_det(e.word)
        if e.pos == "det-pl":
            return entry_plural_det(e.word)
        if e.pos == "noun":
            return entry_noun(e.rel, e.word, agr="pl" if e.plural else "sg")
        if e.pos == "name":
            return entry_name(e.rel, e.word)
        if e.pos == "pron":
            return entry_pronoun(e.word)
        if e.pos == "verb-trans":
            return entry_transitive_verb(e.rel, e.word, e.collective_only)
        if e.pos == "verb-intrans":
            return entry_intransitive_verb(e.rel, e.word, e.collective_only)
        if e.pos == "verb-clause":
            return entry_clause_verb(e.rel, e.word, e.collective_only)
        if e.pos == "comp":
            return entry_complementizer(e.word)
        raise LexiconError(f"unhandled POS {e.pos!r}")


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
        if pos not in _POS_TAGS:
            raise LexiconError(f"{origin}:{lineno}: unknown POS {pos!r}")
        bad = set(flags) - {"pl", "collective-only"}
        if bad:
            raise LexiconError(f"{origin}:{lineno}: unknown flags {sorted(bad)}")
        entries.append(VocabEntry(
            word=word.lower(), pos=pos,
            rel=None if rel == "-" else rel,
            plural="pl" in flags,
            collective_only="collective-only" in flags))
    return entries
