"""Tokenizer and chart parser for the fragment.

The grammar is deliberately small: transitive/intransitive clauses,
determiner NPs, names, "that"-complements, and sentence sequencing.  It
produces binary-branching derivation trees typed by construction, which the
semantics interprets bottom-up.
"""

from __future__ import annotations

from typing import Iterator, Optional

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
    trailing_sep marks a sentence root that absorbed a separator.
    Interpretation fills in sign and introduced, the node's constraint
    delta, for tracing."""

    def __init__(self, construction: str, word: Optional[str] = None,
                 head: Optional[DerivationNode] = None,
                 nonhead: Optional[DerivationNode] = None,
                 trailing_sep: bool = False, sign: object = None,
                 introduced: tuple = ()):
        self.construction = construction
        self.word = word
        self.head = head
        self.nonhead = nonhead
        self.trailing_sep = trailing_sep
        self.sign = sign
        self.introduced = introduced

    def children(self) -> list["DerivationNode"]:
        return [c for c in (self.head, self.nonhead) if c is not None]

    def lexical_nodes(self) -> Iterator["DerivationNode"]:
        if self.construction == LEXICAL:
            yield self
        for c in self.children():
            yield from c.lexical_nodes()


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


def yield_tokens(node: DerivationNode) -> list[str]:
    """The token string a derivation covers (inverse of parse)."""
    if node.construction == LEXICAL:
        return [] if node.word == SILENT else [node.word]
    out = [token for child in _surface_order(node) for token in yield_tokens(child)]
    if node.trailing_sep:
        out.append(SEP)
    return out


def _parse_sentence(tokens: list[str], offset: int, lexicon: Lexicon) -> DerivationNode:
    """The parse of one sentence segment (CKY over the fragment grammar).

    The grammar is unambiguous, so there is at most one: each word has one
    category, an NP's width is fixed by its first word's category and a
    VP's rule by its verb's.  Span (i, j) tries only the split points k
    whose cell (i, k) is filled: ends[i] lists those k, ascending, since
    cells fill in order of width."""
    n = len(tokens)
    if n == 0:
        raise ParseFailure(offset, "empty sentence")
    cells: dict[tuple[int, int], list[tuple[tuple, DerivationNode]]] = {}
    ends: list[list[int]] = [[] for _ in range(n)]

    def add(i: int, j: int, cat: tuple, node: DerivationNode) -> None:
        cell = cells.setdefault((i, j), [])
        if not cell:
            ends[i].append(j)
        cell.append((cat, node))
        if cat == ("v", "intrans"):      # intransitive verb projects to VP directly
            cell.append((("vp",), node))

    for i, tok in enumerate(tokens):
        if tok not in lexicon:
            raise ParseFailure(offset + i, f"unknown word {tok!r}")
        add(i, i + 1, lexicon.category(tok), DerivationNode(LEXICAL, word=tok))

    for width in range(2, n + 1):
        for i in range(0, n - width + 1):
            j = i + width
            for k in ends[i]:
                if k >= j:
                    break  # (i, j) itself, filled in this loop
                right = cells.get((k, j))
                if right is None:
                    continue
                for lcat, lnode in cells[i, k]:
                    for rcat, rnode in right:
                        made = _combine(lcat, lnode, rcat, rnode)
                        if made is not None:
                            add(i, j, *made)

    for cat, node in cells.get((0, n), ()):
        if cat == ("s",):
            return node
    raise ParseFailure(offset + ends[0][-1], "no sentence parse")


def _combine(lcat, lnode, rcat, rnode):
    if lcat[0] == "det" and rcat[0] == "n" and lcat[1] == rcat[1]:
        return ("np", lcat[1]), DerivationNode(HEAD_COMP, head=lnode, nonhead=rnode)
    if lcat == ("v", "trans") and rcat[0] == "np":
        return ("vp",), DerivationNode(HEAD_COMP, head=lnode, nonhead=rnode)
    if lcat == ("v", "clause") and rcat == ("cs",):
        return ("vp",), DerivationNode(HEAD_COMP, head=lnode, nonhead=rnode)
    if lcat == ("comp",) and rcat == ("s",):
        return ("cs",), DerivationNode(FUNCTIONAL, head=lnode, nonhead=rnode)
    if lcat[0] == "np" and rcat == ("vp",):
        return ("s",), DerivationNode(HEAD_SUBJ, head=rnode, nonhead=lnode)
    return None


def parse(tokens: list[str], lexicon: Optional[Lexicon] = None) -> list[DerivationNode]:
    """The derivation the fragment grammar licenses for the token list, in
    a list: none for no tokens, else one (see _parse_sentence).

    Each sentence is wrapped in a silent root complementizer; multiple
    sentences (separated by SEP) fold left-associatively into coordination
    nodes.  Raises ParseFailure with the position where analysis stopped.
    """
    lexicon = lexicon or Lexicon.default()
    segments: list[tuple[int, list[str], bool]] = []
    start = 0
    for i, tok in enumerate(tokens):
        if tok == SEP:
            segments.append((start, tokens[start:i], True))
            start = i + 1
    if start < len(tokens):
        segments.append((start, tokens[start:], False))
    if not segments:
        return []

    derivation = None
    for offset, seg, has_sep in segments:
        root = DerivationNode(FUNCTIONAL, head=DerivationNode(LEXICAL, word=SILENT),
                              nonhead=_parse_sentence(seg, offset, lexicon),
                              trailing_sep=has_sep)
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
