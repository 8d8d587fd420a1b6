"""UDRSs are values: disambiguation returns a new UDRS and never changes an
earlier one, and a plural's key is bound exactly when the closure of the
constraints classifies the plural."""

import json
import random

import pytest

from conftest import analyze, corpus_cases, golden_path, session_for_case
from udrs import KnowledgeRules, PendingKey, closure, from_json
from udrs.cli import build_session
from udrs.plurals import COLLECTIVE, DISTRIBUTIVE, pl_dis_collective, pl_dis_distributive
from udrs.serialize import to_json, to_json_str

PLURAL_TEXTS = [
    "The lawyers hired a secretary.",
    "The lawyers hired the clerks.",
    "Every philosopher believed that the students left.",
    "The lawyers hired a secretary. The clerks met every student.",
]


def load_golden(name):
    with open(golden_path(name), encoding="utf-8") as fh:
        return json.load(fh)


def snapshot(u):
    return to_json_str(u), u.pending_slots()


def first_key(u):
    return next(k for k in u.pending_slots() if isinstance(k, PendingKey))


@pytest.mark.parametrize("text", PLURAL_TEXTS)
@pytest.mark.parametrize("verdict", [COLLECTIVE, DISTRIBUTIVE])
def test_session_disambiguate_leaves_the_earlier_value_alone(text, verdict):
    session = analyze(text)
    before = session.udrs
    seen = snapshot(before)
    session.disambiguate(1, verdict)
    assert snapshot(before) == seen
    assert len(session.udrs.pending_slots()) == len(before.pending_slots()) - 1
    assert session.ctx.registry.unresolved() == session.ctx.registry.all_keys()[1:]


@pytest.mark.parametrize("text", PLURAL_TEXTS)
def test_pl_dis_leaves_the_input_alone(text):
    before = analyze(text).udrs
    seen = snapshot(before)
    for fn in (pl_dis_collective, pl_dis_distributive):
        after = fn(before, first_key(before))
        assert snapshot(before) == seen
        assert len(after.pending_slots()) == len(seen[1]) - 1


def test_golden_11_document_disambiguates_without_a_registry():
    u = from_json(load_golden("udrs_11.json"))
    after = pl_dis_distributive(u, first_key(u))
    assert to_json(after) == load_golden("udrs_16.json")
    assert to_json(u) == load_golden("udrs_11.json")
    assert after.pending_slots() == [] and len(u.pending_slots()) == 1


# --- bound key <=> closure classifies the plural --------------------------------

def keys_of(u):
    return {v for v in u.bindings.values() if isinstance(v, PendingKey)}


def check_keys(u) -> int:
    """Every plural key u links: weak always derivable; bound exactly when
    identity or strict is derivable.  Returns the number of keys checked."""
    c = closure(u.subord)
    keys = keys_of(u)
    for key in keys:
        hi, lo = key.np_l_max, key.np_l_min
        assert c.weakly(hi, lo), key
        classified = c.identical(hi, lo) or c.strictly(hi, lo)
        assert (key in u.bindings) == classified, key
    return len(keys)


def check_session(session, roots) -> int:
    checked = check_keys(session.udrs)
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node.sign is not None:
            checked += check_keys(node.sign.udrs)
        stack.extend(node.children())
    return checked


NPS_SG = ["every {n}", "a {n}", "john", "mary"]
NPS_PL = ["the {n}s", "they"]
NOUNS = ["lawyer", "clerk", "student", "philosopher", "office"]


def random_np(rng):
    pattern = rng.choice(NPS_SG + NPS_PL + NPS_PL)
    return pattern.format(n=rng.choice(NOUNS))


def random_sentence(rng):
    roll = rng.random()
    if roll < 0.15:
        return f"the {rng.choice(NOUNS)}s gathered"
    if roll < 0.3:
        return f"{random_np(rng)} left"
    if roll < 0.45:
        return f"{random_np(rng)} believed that {random_np(rng)} left"
    verb = rng.choice(["hired", "met", "admires", "shared"])
    return f"{random_np(rng)} {verb} {random_np(rng)}"


def generated_sessions(count, seed, rules_path):
    rng = random.Random(seed)
    for _ in range(count):
        text = " ".join(random_sentence(rng) + "." for _ in range(rng.randint(1, 4)))
        rules = KnowledgeRules.from_file(rules_path) if rng.random() < 0.5 else None
        session, roots = build_session(text, rules=rules)
        yield session, roots, rng


def test_bound_key_iff_closure_classifies_on_corpus(corpus_rules):
    checked = 0
    for case in corpus_cases():
        session = session_for_case(case)
        checked += check_keys(session.udrs)
        session, roots = build_session(case.input)
        checked += check_session(session, roots)
    assert checked >= 10


def test_bound_key_iff_closure_classifies_on_generated_discourses(corpus_rules):
    checked = 0
    for session, roots, rng in generated_sessions(120, 401, corpus_rules):
        checked += check_session(session, roots)
        for index, key in enumerate(session.ctx.registry.all_keys(), 1):
            if key not in session.udrs.bindings and rng.random() < 0.6:
                session.disambiguate(index, rng.choice([COLLECTIVE, DISTRIBUTIVE]))
                checked += check_keys(session.udrs)
    assert checked >= 300
