import dataclasses
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
    return dataclasses.replace(u, subord=u.subord | set(extra))


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
