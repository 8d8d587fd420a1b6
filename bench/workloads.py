"""Seeded inputs for the udrs benchmark.

Each workload is a fixed catalogue of input *shapes*.  A shape is a short
discourse written with placeholders instead of content words (``N0`` a
singular noun, ``N0s`` its plural, ``V0`` a transitive verb, ``P0`` a
name, ``X0`` a word outside the lexicon), plus the plural directives and
the rules file the input is run with.  ``fill`` turns a shape into text with
a seeded, one-to-one choice of words from ``fragment.lex``.  Because the
choice is one-to-one within each word class, the reading count of a shape
and its serialized structure (with content words mapped back to their
placeholders) do not depend on the seed, so ``expected.json`` can hold the
expected output of every shape once.

The seed picks the words and the order in which shapes are sent; the set
of shapes is the same in every run, so runs with different seeds measure
the same amount of work.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEXICON = ROOT / "src" / "udrs" / "data" / "fragment.lex"
RULES = Path(__file__).resolve().parent / "rules.txt"

COLLECTIVE, DISTRIBUTIVE = "collective", "distributive"
CONTINUATION_REL = "share"      # the rel that bench/rules.txt makes a trigger
LITERALS = ("every", "a", "an", "the", "that", "believed", "left", "gathered",
            "they", "shared")
CATALOGUE_SEED = 1995           # fixes the construct catalogue, not the run


@dataclass(frozen=True)
class Vocabulary:
    nouns: tuple[tuple[str, str, str], ...]   # (rel, singular, plural)
    verbs: tuple[tuple[str, str], ...]        # transitive (rel, word)
    names: tuple[tuple[str, str], ...]        # (rel, word)
    words: frozenset[str]


def read_vocabulary(path: Path = LEXICON) -> Vocabulary:
    """Word classes of a vocabulary file, in the format udrs reads."""
    entries = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        fields = raw.split("#", 1)[0].split()
        if len(fields) >= 3:
            entries.append((fields[0].lower(), fields[1], fields[2], set(fields[3:])))
    singular = {rel: w for w, pos, rel, flags in entries if pos == "noun" and "pl" not in flags}
    plural = {rel: w for w, pos, rel, flags in entries if pos == "noun" and "pl" in flags}
    words = frozenset(w for w, *_ in entries)
    missing = [w for w in LITERALS if w not in words]
    if missing:
        raise ValueError(f"{path}: benchmark words missing: {missing}")
    return Vocabulary(
        nouns=tuple((rel, singular[rel], plural[rel])
                    for rel in sorted(singular) if rel in plural),
        verbs=tuple((rel, w) for w, pos, rel, flags in entries
                    if pos == "verb-trans" and "collective-only" not in flags
                    and rel != CONTINUATION_REL),
        names=tuple((rel, w) for w, pos, rel, flags in entries if pos == "name"),
        words=words)


@dataclass(frozen=True)
class Shape:
    text: str                                   # placeholder tokens, "." ends a sentence
    directives: tuple[tuple[int, str], ...] = ()
    rules: bool = False                         # run with bench/rules.txt
    parse_failure: bool = False                 # the input must raise ParseFailure

    @property
    def key(self) -> str:
        dirs = " ".join(f"np{i}={v}" for i, v in self.directives)
        return f"{self.text} | {dirs} | {'rules' if self.rules else '-'}"


@dataclass(frozen=True)
class Input:
    shape: Shape
    text: str
    placeholders: dict[str, str]                # rel in the text -> placeholder


def fill(shape: Shape, rng: random.Random, vocab: Vocabulary) -> Input:
    """Text for a shape, with words drawn one-to-one per class."""
    nouns = rng.sample(vocab.nouns, len(vocab.nouns))
    verbs = rng.sample(vocab.verbs, len(vocab.verbs))
    names = rng.sample(vocab.names, len(vocab.names))
    placeholders: dict[str, str] = {}
    words: list[str] = []
    for tok in shape.text.split():
        kind, index = tok[0], tok[1:].rstrip("s")
        if tok in LITERALS or tok == "." or not index.isdigit():
            words.append(tok)
            continue
        i = int(index)
        if kind == "N":
            rel, sg, pl = nouns[i]
            words.append(pl if tok.endswith("s") else sg)
        elif kind == "V":
            rel, w = verbs[i]
            words.append(w)
        elif kind == "P":
            rel, w = names[i]
            words.append(w)
        elif kind == "X":
            rel, w = None, nouns[i][1] + "x"
            while w in vocab.words:
                w += "x"
            words.append(w)
        else:
            raise ValueError(f"bad placeholder {tok!r} in {shape.text!r}")
        if rel is not None:
            placeholders[rel] = f"{kind}{i}"
    for i, w in enumerate(words[:-1]):
        if w == "a" and words[i + 1][0] in "aeiou":
            words[i] = "an"
    sentences, current = [], []
    for w in words:
        if w == ".":
            sentences.append(" ".join(current).capitalize() + ".")
            current = []
        else:
            current.append(w)
    if current:
        sentences.append(" ".join(current).capitalize())
    return Input(shape, " ".join(sentences), placeholders)


def generate(shapes: list[Shape], seed: int, vocab: Vocabulary) -> list[Input]:
    """One pass over every shape, filled and ordered by the seed."""
    rng = random.Random(seed)
    inputs = [fill(s, rng, vocab) for s in shapes]
    rng.shuffle(inputs)
    return inputs


# --- Catalogues --------------------------------------------------------------

class _Namer:
    """Hands out placeholders in order of first use within one shape."""

    def __init__(self) -> None:
        self.nouns = 0
        self.names = 0

    def np(self, det: str) -> str:
        if det == "name":
            self.names += 1
            return f"P{(self.names - 1) % 2}"
        self.nouns += 1
        return f"{det} N{self.nouns - 1}"


def deep_scope() -> list[Shape]:
    """`that`-embedding chains of depth 2-4, at most three `every`."""
    shapes = []
    for depth in (2, 3, 4):
        for dets in itertools.product(("every", "a", "name"), repeat=depth):
            if dets.count("every") > 3:
                continue
            n = _Namer()
            shapes.append(Shape(" believed that ".join(n.np(d) for d in dets) + " left ."))
    return shapes


def wide_discourse() -> list[Shape]:
    """Name+indefinite discourses of 3-4 sentences and two-plural discourses."""
    shapes = []
    for dets in itertools.product(("name", "a"), repeat=6):
        n = _Namer()
        shapes.append(Shape(" ".join(
            f"{n.np(dets[2 * i])} V{i} {n.np(dets[2 * i + 1])} ." for i in range(3))))
    for dets in itertools.product(("name", "a"), repeat=5):
        n = _Namer()
        shapes.append(Shape(" ".join(
            f"{n.np(dets[2 * i])} V{i} {n.np(dets[2 * i + 1])} ." for i in range(2))
            + f" {n.np(dets[4])} left ."))
    shapes.append(Shape("P0 V0 a N0 . P1 V1 a N1 . P0 V2 a N2 . P1 V0 a N3 ."))
    for text in ("the N0s V0 a N1 . the N2s V1 a N3 .",
                 "the N0s V0 a N1 . the N2s left .",
                 "the N0s V0 P0 . the N1s left ."):
        for verdicts in itertools.product((COLLECTIVE, DISTRIBUTIVE), repeat=2):
            shapes.append(Shape(text, ((1, verdicts[0]), (2, verdicts[1]))))
    return shapes


def many_readings() -> list[Shape]:
    """Two quantified transitive sentences: 44-64 readings, <= 4 referents."""
    one_every = [("every", "a"), ("every", "name"), ("a", "every"), ("name", "every")]
    pairs = list(itertools.product(one_every, repeat=2))
    pairs += [(("every", "every"), other) for other in
              (("a", "a"), ("a", "name"), ("name", "a"))]
    shapes = []
    for first, second in pairs:
        n = _Namer()
        shapes.append(Shape(f"{n.np(first[0])} V0 {n.np(first[1])} . "
                            f"{n.np(second[0])} V1 {n.np(second[1])} ."))
    return shapes


# Sentence templates for `construct`: (text, kind), where kind says how the
# plural subject (if any) gets decided.  Lower-case letters stand for noun
# indices, P for a name and V for a verb, chosen when the catalogue is made.
_TEMPLATES = [
    ("every Na V a Nb", None),
    ("a Na V every Nb", None),
    ("P V a Na", None),
    ("P left", None),
    ("every Na left", None),
    ("P believed that every Na V a Nb", None),
    ("every Na believed that a Nb left", None),
    ("the Nas V a Nb", "pending"),
    ("the Nas gathered", "lexical"),
    ("P believed that the Nas left", "pending"),
    ("they V a Na", None),
    ("they left", None),
]
_TRIGGER = ("the Nas shared a Nb", "rule")


def _sentence(template: str, rng: random.Random) -> str:
    a, b = rng.sample(range(6), 2)
    return (template.replace("Na", f"N{a}").replace("Nb", f"N{b}")
            .replace("P ", f"P{rng.randrange(2)} ")
            .replace("V ", f"V{rng.randrange(3)} ")) + " ."


def construct() -> list[Shape]:
    """Discourses of 8-40 sentences over every clause template.

    The shapes cycle through three ways of deciding plurals: none (they stay
    pending), the continuation rule in bench/rules.txt, and explicit
    directives on a random subset.  Every sixteenth discourse has one
    ungrammatical sentence or an unknown word and must raise ParseFailure.
    """
    rng = random.Random(CATALOGUE_SEED)
    shapes = []
    for k in range(48):
        mode = ("plain", "rules", "directives")[k % 3]
        picked = [rng.choice(_TEMPLATES) for _ in range(rng.randint(8, 40))]
        if mode == "rules":
            picked.insert(rng.randrange(len(picked) + 1), _TRIGGER)
        sentences = [_sentence(t, rng) for t, _ in picked]
        directives = []
        if mode == "directives":
            plural_index = 0
            for _, kind in picked:
                if kind is None:
                    continue
                plural_index += 1
                if kind == "pending" and rng.random() < 0.7:
                    directives.append(
                        (plural_index, rng.choice((COLLECTIVE, DISTRIBUTIVE))))
        bad = k % 16 == 15
        if bad:
            i = rng.randrange(len(sentences))
            words = sentences[i].split()[:-1]
            if k % 32 == 15:   # an out-of-lexicon word in place of a noun
                nouns = [j for j, w in enumerate(words) if w.startswith("N")]
                j = rng.choice(nouns) if nouns else 0
                words[j] = "X" + words[j][1:].rstrip("s")
            else:              # verb moved to the front of its clause
                verb = next(j for j, w in enumerate(words)
                            if w[0] == "V" or w in ("left", "gathered", "believed"))
                words.insert(0, words.pop(verb))
            sentences[i] = " ".join(words) + " ."
            directives = []
        shapes.append(Shape(" ".join(sentences), tuple(directives),
                            rules=mode == "rules", parse_failure=bad))
    return shapes


CATALOGUES = {
    "construct": construct,
    "deep-scope": deep_scope,
    "wide-discourse": wide_discourse,
    "many-readings": many_readings,
}
