import itertools
import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))  # for the oracle helper module

from udrs import KnowledgeRules, Lexicon
from udrs.core import (
    IDENTITY, STRICT, WEAK, SubordConstraint, conditional, identity, strict,
    weak,
)
from udrs.cli import CorpusCase, Session, _read_corpus, build_session
from udrs.plurals import COLLECTIVE, DISTRIBUTIVE

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.fixture(scope="session")
def lexicon():
    return Lexicon.default()


@pytest.fixture(scope="session")
def corpus_rules():
    return os.path.join(GOLDEN, "rules.txt")


def analyze(text: str, rules_path: str | None = None,
            disambiguate: tuple[tuple[int, str], ...] = ()) -> Session:
    rules = KnowledgeRules.from_file(rules_path) if rules_path else None
    session, _ = build_session(text, rules=rules)
    for index, verdict in disambiguate:
        session.disambiguate(index, verdict)
    return session


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN, name)


def corpus_cases() -> list[CorpusCase]:
    return _read_corpus(golden_path("corpus.txt"))


def session_for_case(case: CorpusCase) -> Session:
    from udrs.cli import _parse_disambiguation
    session = analyze(case.input, rules_path=golden_path("rules.txt"))
    for spec in case.disambiguate:
        index, verdict = _parse_disambiguation(spec)
        session.disambiguate(index, verdict)
    return session


def each_verdict(case: CorpusCase) -> list:
    """(name, UDRS) for the case; while its plural NP waits, one pair per
    verdict on it instead, named <case>/<verdict>."""
    u = session_for_case(case).udrs
    if not u.pending_slots():
        return [(case.name, u)]
    out = []
    for verdict in (COLLECTIVE, DISTRIBUTIVE):
        session = session_for_case(case)
        session.disambiguate(1, verdict)
        out.append((f"{case.name}/{verdict}", session.udrs))
    return out


def random_superset(u, rng: random.Random, max_extra: int = 3):
    """A UDRS whose constraint set extends u's by a few random constraints."""
    labels = sorted(u.labels(), key=lambda l: l.uid)
    extra = []
    for _ in range(rng.randint(1, max_extra)):
        a, b = rng.sample(labels, 2)
        roll = rng.random()
        if roll < 0.5:
            extra.append(weak(a, b))
        elif roll < 0.75:
            extra.append(strict(a, b))
        elif roll < 0.9:
            extra.append(identity(a, b))
        else:
            c, d = rng.sample(labels, 2)
            extra.append(conditional(a, b, c, d))
    return u._replace(subord=u.subord | set(extra))


def relations(c):
    """The full derived relation set over a closure's domain."""
    for a in c.domain:
        for b in c.domain:
            if c.identical(a, b):
                yield (IDENTITY, a, b)
            elif c.strictly(a, b):
                yield (STRICT, a, b)
            elif c.weakly(a, b):
                yield (WEAK, a, b)


def to_constraints(c) -> frozenset:
    """The derived relations of a closure as a constraint set."""
    return frozenset(SubordConstraint(k, a, b) for k, a, b in relations(c))


# --- The benchmark input families, rebuilt from the built-in vocabulary ---

NOUNS = ("lawyer", "secretary", "philosopher", "student", "clerk", "office")
PLURALS = dict(zip(NOUNS, ("lawyers", "secretaries", "philosophers",
                           "students", "clerks", "offices")))
VERBS = ("hired", "admires", "met")
NAMES = ("john", "mary")


def noun_phrases(dets):
    """One NP per determiner: a fresh noun each, names alternating."""
    nps, nouns, names = [], iter(NOUNS), itertools.cycle(NAMES)
    for det in dets:
        nps.append(next(names) if det == "name" else f"{det} {next(nouns)}")
    return nps


def discourse(clauses) -> str:
    return " ".join(c.capitalize() + "." for c in clauses)


def that_chains():
    """Depth 2-4 `that`-embeddings with at most three `every`."""
    return [discourse([" believed that ".join(noun_phrases(dets)) + " left"])
            for depth in (2, 3, 4)
            for dets in itertools.product(("every", "a", "name"), repeat=depth)
            if dets.count("every") <= 3]


def wide_discourses():
    """Name+indefinite discourses of 3 sentences, and of 2 plus an
    intransitive; two-plural discourses under each pair of directives."""
    out = []
    for dets in itertools.product(("name", "a"), repeat=6):
        nps = noun_phrases(dets)
        out.append((discourse(f"{nps[2 * i]} {VERBS[i]} {nps[2 * i + 1]}"
                              for i in range(3)), ()))
    for dets in itertools.product(("name", "a"), repeat=5):
        nps = noun_phrases(dets)
        out.append((discourse([f"{nps[2 * i]} {VERBS[i]} {nps[2 * i + 1]}"
                               for i in range(2)] + [f"{nps[4]} left"]), ()))
    for text in ("The lawyers hired a clerk. The students met an office.",
                 "The lawyers hired a clerk. The students left.",
                 "The lawyers hired john. The clerks left."):
        for verdicts in itertools.product((COLLECTIVE, DISTRIBUTIVE), repeat=2):
            out.append((text, ((1, verdicts[0]), (2, verdicts[1]))))
    return out


def quantified_pairs():
    """Two quantified transitive sentences, one or two `every` in the first."""
    one_every = [("every", "a"), ("every", "name"), ("a", "every"), ("name", "every")]
    pairs = list(itertools.product(one_every, repeat=2))
    pairs += [(("every", "every"), other)
              for other in (("a", "a"), ("a", "name"), ("name", "a"))]
    out = []
    for first, second in pairs:
        a, b, c, d = noun_phrases(first + second)
        out.append(discourse([f"{a} hired {b}", f"{c} met {d}"]))
    return out
