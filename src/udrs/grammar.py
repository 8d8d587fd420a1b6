"""Tokenizer and one-pass parser for the fragment.

The grammar is deliberately small: transitive/intransitive clauses,
determiner NPs, names, "that"-complements, and sentence sequencing.  It
produces binary-branching derivation trees typed by construction, which the
semantics interprets bottom-up.
"""

from __future__ import annotations

from typing import Optional

from .core import UDRSError
from .lexicon import Lexicon

SEP = "<sep>"      # sentence separator token ("." and inter-sentence "and")
SILENT = "<root>"  # pseudo-word of the silent root complementizer

LEXICAL, HEAD_COMP, HEAD_SUBJ, FUNCTIONAL, COORD = (
    "lexical", "head_comp", "head_subj", "functional", "coord")


class ParseFailure(UDRSError):
    def __init__(self, position: int, message: str):
        self.position = position
        super().__init__(f"{message} (token {position})")


class DerivationNode:
    """A node of a derivation tree.  Only lexical nodes have a word;
    interpretation fills in sign."""

    def __init__(self, construction: str, word: Optional[str] = None,
                 head: Optional[DerivationNode] = None,
                 nonhead: Optional[DerivationNode] = None, sign: object = None):
        self.construction = construction
        self.word = word
        self.head = head
        self.nonhead = nonhead
        self.sign = sign

    def children(self) -> list["DerivationNode"]:
        return [c for c in (self.head, self.nonhead) if c is not None]


def tokenize(text: str) -> list[str]:
    """Lowercased word tokens; a word ending in ".", "!" or "?" is followed
    by SEP, and sentence-level "and" becomes SEP."""
    tokens = []
    for raw in text.split():
        word = raw.lower()
        while word.endswith((".", "!", "?", ",")):
            word = word[:-1]
        if word == "and":
            tokens.append(SEP)
        elif word:
            tokens.append(word)
        if raw.endswith((".", "!", "?")):
            tokens.append(SEP)
    return tokens


def _parse_sentence(tokens: list[str], offset: int, lexicon: Lexicon) -> DerivationNode:
    """The parse of one sentence segment, by one descent over the rules

        S -> NP VP      NP -> det n | name | pronoun
        CS -> that S    VP -> intransitive | transitive NP | clause-verb CS

    The grammar is unambiguous: each word has one category, an NP's width
    is fixed by its first word's and a VP's rule by its verb's, so from any
    position each category has at most one analysis, which the descent
    (_s, _np, _vp, _cs below) builds.  A segment that no S spans fails at
    the end of the longest constituent that starts it: the first word, or
    the NP, VP, CS or S the descent builds there."""
    n = len(tokens)
    if n == 0:
        raise ParseFailure(offset, "empty sentence")
    cats = []
    for i, tok in enumerate(tokens):
        if tok not in lexicon:
            raise ParseFailure(offset + i, f"unknown word {tok!r}")
        cats.append(lexicon.category(tok))
    cats.append(("",))  # past the end: no rule reads it
    sentence = _s(tokens, cats, 0)
    if sentence is not None and sentence[1] == n:
        return sentence[0]
    longest = (sentence or _np(tokens, cats, 0) or _vp(tokens, cats, 0)
               or _cs(tokens, cats, 0))
    raise ParseFailure(offset + (longest[1] if longest else 1), "no sentence parse")


# The descent's rules, one function each: the (node, end) of the
# constituent of the rule's category that starts at token i, or None.  cats
# holds each token's category and one entry past the end.  They are module
# functions, not closures over the segment: a nested function that calls
# itself or a sibling is a reference cycle, which only the cycle collector
# frees.

def _leaf(tokens: list[str], i: int) -> DerivationNode:
    return DerivationNode(LEXICAL, word=tokens[i])


def _np(tokens: list[str], cats: list[tuple], i: int) -> Optional[tuple[DerivationNode, int]]:
    cat = cats[i]
    if cat[0] == "np":
        return _leaf(tokens, i), i + 1
    if cat[0] == "det" and cats[i + 1] == ("n", cat[1]):
        return (DerivationNode(HEAD_COMP, head=_leaf(tokens, i), nonhead=_leaf(tokens, i + 1)),
                i + 2)
    return None


def _vp(tokens: list[str], cats: list[tuple], i: int) -> Optional[tuple[DerivationNode, int]]:
    cat = cats[i]
    if cat == ("v", "intrans"):
        return _leaf(tokens, i), i + 1
    if cat == ("v", "trans"):
        comp = _np(tokens, cats, i + 1)
    elif cat == ("v", "clause"):
        comp = _cs(tokens, cats, i + 1)
    else:
        return None
    return comp and (DerivationNode(HEAD_COMP, head=_leaf(tokens, i), nonhead=comp[0]), comp[1])


def _cs(tokens: list[str], cats: list[tuple], i: int) -> Optional[tuple[DerivationNode, int]]:
    clause = _s(tokens, cats, i + 1) if cats[i] == ("comp",) else None
    return clause and (DerivationNode(FUNCTIONAL, head=_leaf(tokens, i), nonhead=clause[0]),
                       clause[1])


def _s(tokens: list[str], cats: list[tuple], i: int) -> Optional[tuple[DerivationNode, int]]:
    subject = _np(tokens, cats, i)
    pred = subject and _vp(tokens, cats, subject[1])
    return pred and (DerivationNode(HEAD_SUBJ, head=pred[0], nonhead=subject[0]), pred[1])


def parse(tokens: list[str], lexicon: Optional[Lexicon] = None) -> list[DerivationNode]:
    """The derivation the fragment grammar licenses for the token list, in
    a list: none for no tokens, else one (see _parse_sentence).

    Each sentence is wrapped in a silent root complementizer; multiple
    sentences (separated by SEP) fold left-associatively into coordination
    nodes.  Raises ParseFailure with the position where analysis stopped.
    """
    lexicon = lexicon or Lexicon.default()
    segments: list[tuple[int, list[str]]] = []
    start = 0
    for i, tok in enumerate(tokens):
        if tok == SEP:
            segments.append((start, tokens[start:i]))
            start = i + 1
    if start < len(tokens):
        segments.append((start, tokens[start:]))
    if not segments:
        return []

    derivation = None
    for offset, seg in segments:
        root = DerivationNode(FUNCTIONAL, head=DerivationNode(LEXICAL, word=SILENT),
                              nonhead=_parse_sentence(seg, offset, lexicon))
        derivation = root if derivation is None else DerivationNode(
            COORD, head=derivation, nonhead=root)
    return [derivation]


def bracketed(node: DerivationNode, indent: int = 0) -> str:
    """Human-readable derivation tree for --trace-syntax."""
    pad = "  " * indent
    if node.construction == LEXICAL:
        return f"{pad}({node.word})"
    parts = [f"{pad}[{node.construction}"]
    for child in _surface_order(node):
        parts.append(bracketed(child, indent + 1))
    parts.append(f"{pad}]")
    return "\n".join(parts)


def _surface_order(node: DerivationNode) -> list[DerivationNode]:
    """The node's children in the order their words come: a subject before
    its VP head, otherwise head first."""
    if node.construction == HEAD_SUBJ:
        return [node.nonhead, node.head]
    return node.children()
