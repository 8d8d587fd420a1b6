"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the pass/fail lines.
All comparisons are structural and exact; the only tolerances are the two
stated runtime bounds.
"""

import json
import random
import time
from contextlib import contextmanager

from conftest import (
    analyze, corpus_cases, each_verdict, golden_path, random_superset,
    session_for_case,
)
from oracle import oracle_count
from udrs import (
    DISTRIBUTION, GROUP, DiscourseReferent, KnowledgeRules, Membership, PendingKey,
    Predicate, Quantifier, ReferentIntro, check_udrs, closure, identity, strict,
)
from udrs.cli import Session, build_directed_session, build_session
from udrs.plurals import (
    COLLECTIVE, DISTRIBUTIVE, _classified, pl_dis_collective, pl_dis_distributive,
)
from udrs.readings import (
    InconsistentConstraints, canonical_form, check_binding, count_readings,
    enumerate_readings,
)
from udrs.serialize import to_json, to_json_str


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({description}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({description}): PASS")


def load_golden(name):
    with open(golden_path(name), encoding="utf-8") as fh:
        return json.load(fh)


def fixture_11_session() -> Session:
    return analyze("The lawyers hired a secretary.")


def plural_key(session):
    return session.ctx.registry.all_keys()[0]


def test_criterion_1_golden_fixture_11():
    with criterion(1, "golden fixture: underspecified plural sentence"):
        start = time.monotonic()
        session = fixture_11_session()
        u = session.udrs
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"parse took {elapsed:.3f}s"

        with open(golden_path("udrs_11.json"), encoding="utf-8") as fh:
            assert to_json_str(u) == fh.read()

        preds = {c.rel: c for c in u.conds if isinstance(c, Predicate)}
        assert set(preds) == {"lawyer", "secretary", "hire"}
        hire = preds["hire"]
        assert isinstance(u.resolve(hire.args[0]), PendingKey)  # subject slot pending
        assert isinstance(u.resolve(hire.args[1]), DiscourseReferent)  # object resolved to y

        lawyers_intro = next(c for c in u.conds if isinstance(c, ReferentIntro)
                             and c.dref.sort == GROUP)
        l1 = lawyers_intro.label
        assert preds["lawyer"].label == l1
        l12 = u.resolve(hire.args[0]).np_l_min
        l2 = preds["secretary"].label
        l3 = hire.label
        top = next(l for l in u.labels() if l.is_top)
        c = closure(u.subord)
        for above, below in ((top, l1), (top, l2), (l1, l12), (l12, l3), (l2, l3)):
            assert c.weakly(above, below)


def test_criterion_2_collective_fixture_15():
    with criterion(2, "collective disambiguation adds identity only"):
        session = fixture_11_session()
        before = session.udrs
        key = plural_key(session)
        group = before.find_intro(key.np_l_max).dref
        after = pl_dis_collective(before, key)

        assert to_json(after) == load_golden("udrs_15.json")
        assert after.conds == before.conds                  # nothing added
        assert after.subord > before.subord                 # nothing removed
        added = after.subord - before.subord
        assert [(c.kind, c.left, c.right) for c in added] == [
            ("identity", key.np_l_max, key.np_l_min)]
        hire = next(c for c in after.conds
                    if isinstance(c, Predicate) and c.rel == "hire")
        assert after.resolve(hire.args[0]) == group
        assert isinstance(after.resolve(hire.args[1]), DiscourseReferent)


def test_criterion_3_distributive_fixture_16():
    with criterion(3, "distributive disambiguation adds duplex; 2 readings"):
        session = fixture_11_session()
        before = session.udrs
        key = plural_key(session)
        group = before.find_intro(key.np_l_max).dref
        after = pl_dis_distributive(before, key)

        assert to_json(after) == load_golden("udrs_16.json")
        added_conds = after.conds - before.conds
        assert before.conds <= after.conds
        types = sorted(type(c).__name__ for c in added_conds)
        assert types == ["Membership", "Quantifier", "ReferentIntro"]
        duplex = next(c for c in added_conds if isinstance(c, Quantifier))
        intro = next(c for c in added_conds if isinstance(c, ReferentIntro))
        member = next(c for c in added_conds if isinstance(c, Membership))
        assert duplex.label == key.np_l_max and duplex.scope == key.np_l_min
        assert duplex.res == intro.label == member.label
        assert after.resolve(member.group) == group

        added_subord = after.subord - before.subord
        assert {(c.kind, c.left, c.right) for c in added_subord} == {
            ("strict", key.np_l_max, duplex.res),
            ("strict", key.np_l_max, key.np_l_min)}

        assert count_readings(after) == 2


def test_criterion_4_scope_counts_match_oracle():
    with criterion(4, "reading counts match the brute-force oracle"):
        assert count_readings(
            analyze("Every lawyer hired a secretary.").udrs) == 2
        assert count_readings(
            analyze("Every lawyer believed that every clerk left.").udrs) == 1
        assert count_readings(
            analyze("Every lawyer believed that a clerk left.").udrs) == 2

        oracle_time = 0.0
        compared = 0
        for case in corpus_cases():
            session = session_for_case(case)
            variants = []
            if session.udrs.pending_slots():
                for verdict in (COLLECTIVE, DISTRIBUTIVE):
                    v = session_for_case(case)
                    v.disambiguate(1, verdict)
                    variants.append(v.udrs)
            else:
                variants.append(session.udrs)
            for u in variants:
                mine = count_readings(u)
                start = time.monotonic()
                theirs = oracle_count(u)
                oracle_time += time.monotonic() - start
                assert mine == theirs, f"{case.name}: {mine} != oracle {theirs}"
                compared += 1
        assert compared >= len(corpus_cases())
        assert oracle_time < 10.0, f"oracle took {oracle_time:.2f}s"


def _walk_nodes(node):
    yield node
    for child in node.children():
        yield from _walk_nodes(child)


def _corpus_session_with_trees(case):
    rules = KnowledgeRules.from_file(golden_path("rules.txt"))
    return build_session(case.input, rules=rules)


def _decided(session) -> tuple[set, set]:
    """The constraints and conditions the session's plural decisions add, read
    off each bound key: a collective plural its identity; a distributive one
    its two strict subordinations and three conditions, the dist quantifier
    at the key's l_max, its referent intro and its membership."""
    u = session.udrs
    subord, conds = set(), set()
    for key in session.ctx.registry.all_keys():
        if key not in u.bindings:
            continue
        if _classified(u, key) == COLLECTIVE:
            subord.add(identity(*key))
            continue
        l_max, l_min = key
        x, group = u.bindings[key], u.find_intro(l_max).dref
        (quant,) = [c for c in u.conds if isinstance(c, Quantifier) and c.label == l_max
                    and (c.rel, c.scope) == (DISTRIBUTION, l_min)]
        (intro,) = [c for c in u.conds if isinstance(c, ReferentIntro)
                    and (c.label, c.dref) == (quant.res, x)]
        (member,) = [c for c in u.conds if isinstance(c, Membership)
                     and (c.label, c.element, c.group) == (quant.res, x, group)]
        subord |= {strict(l_max, quant.res), strict(l_max, l_min)}
        conds |= {quant, intro, member}
    return subord, conds


def test_criterion_5_monotonicity_over_corpus():
    with criterion(5, "conditions and constraints grow monotonically"):
        distributive = 0
        rules = KnowledgeRules.from_file(golden_path("rules.txt"))
        for case in corpus_cases():
            built = [build_session(case.input, rules=rules)]
            if case.disambiguate:
                built.append(build_directed_session(case.input, case.disambiguate,
                                                    rules=rules))
            for session, roots in built:
                for root in roots:
                    for node in _walk_nodes(root):
                        if node.construction == "lexical":
                            continue
                        kids = node.children()
                        kid_conds = frozenset().union(*(k.sign.udrs.conds for k in kids))
                        kid_subord = frozenset().union(*(k.sign.udrs.subord for k in kids))
                        assert node.sign.udrs.conds == kid_conds, case.name
                        assert node.sign.udrs.subord >= kid_subord, case.name
                # discourse level: exactly its sentences' conditions and
                # constraints plus those of the plural decisions sequencing made
                subord, conds = _decided(session)
                distributive += len(conds) // 3
                for root in roots:
                    subord |= root.sign.udrs.subord
                    conds |= root.sign.udrs.conds
                assert session.udrs.conds == conds, case.name
                assert session.udrs.subord == subord, case.name
        assert distributive == 2  # the two corpus cases directed distributive

        # pl_dis applications are add-only, componentwise
        for fn in (pl_dis_collective, pl_dis_distributive):
            session = fixture_11_session()
            before = session.udrs
            after = fn(before, plural_key(session))
            assert after.conds >= before.conds
            assert after.subord >= before.subord


def test_criterion_6_semilattice_and_binding():
    with criterion(6, "semilattice checks and referent binding hold everywhere"):
        for case in corpus_cases():
            session, roots = _corpus_session_with_trees(case)
            for root in roots:
                for node in _walk_nodes(root):
                    if node.construction == "lexical":
                        continue
                    assert check_udrs(node.sign.udrs) == [], case.name
            assert check_udrs(session.udrs) == [], case.name
            for name, u in each_verdict(case):
                for drs in enumerate_readings(u):
                    assert check_binding(drs) == [], name


def test_criterion_7_refinement_random_supersets():
    with criterion(7, "adding constraints never adds readings (100 trials)"):
        rng = random.Random(7)
        bases = []
        for case in corpus_cases():
            session = session_for_case(case)
            if not session.udrs.pending_slots():
                bases.append((case.name, session.udrs))
        trials = 0
        while trials < 100:
            name, u = bases[trials % len(bases)]
            base_readings = {canonical_form(d) for d in enumerate_readings(u)}
            stronger = random_superset(u, rng)
            try:
                refined = {canonical_form(d) for d in enumerate_readings(stronger)}
            except InconsistentConstraints:
                refined = set()
            assert refined <= base_readings, name
            trials += 1
        assert trials == 100
