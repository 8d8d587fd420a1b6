"""The bit-parallel closure against the first one, ReferenceClosure.

Random constraint sets over a few labels, cycles included, must give the
same derived relations, classes, fired conditionals and cycle verdicts.
The relations are compared label by label through the queries, and class
by class as the bit rows hold them, weak and strict.
Only the label a CycleError names may differ: it follows the rule pinned
in test_cycle_names_least_uid_representative.
"""

import random
import time

import pytest

from oracle import ReferenceClosure
from udrs.core import (
    CycleError, closure, conditional, fresh_label, identity, strict, weak,
)


def random_constraints(rng: random.Random, labels: list) -> list:
    out = []
    for _ in range(rng.randint(1, 2 * len(labels))):
        a, b = rng.sample(labels, 2)
        kind = rng.choice("wwwssic")
        if kind == "c":
            x, y = rng.sample(labels, 2)
            out.append(conditional(x, y, a, b))
        else:
            out.append({"w": weak, "s": strict, "i": identity}[kind](a, b))
    return out


def derive(cls, constraints):
    try:
        return cls(constraints)
    except CycleError:
        return None


def members(c) -> list:
    """The closure's classes by number, each as its set of labels."""
    out = [set() for _ in c.weak_rows]
    for l, k in c.classes.items():
        out[k].add(l)
    return [frozenset(m) for m in out]


def class_pairs(c) -> set:
    """Every derived a >= b between distinct classes of the closure, read
    off its bit rows, with a flag for a > b."""
    by_number = members(c)
    return {(by_number[i], by_number[j], c.strict_rows[i] >> j & 1 == 1)
            for i, row in enumerate(c.weak_rows) for j in range(len(by_number))
            if i != j and row >> j & 1}


def reference_class_pairs(c) -> set:
    """derived_pairs() with each representative replaced by its class."""
    return {(frozenset(c.eq_class(a)), frozenset(c.eq_class(b)), s)
            for a, b, s in c.derived_pairs()}


def test_matches_reference_closure():
    rng = random.Random(5)
    cyclic = acyclic = 0
    for _ in range(2500):
        labels = [fresh_label() for _ in range(rng.randint(2, 9))]
        constraints = frozenset(random_constraints(rng, labels))
        got, want = derive(closure, constraints), derive(ReferenceClosure, constraints)
        assert (got is None) == (want is None), constraints
        if got is None:
            cyclic += 1
            continue
        acyclic += 1
        by_number = members(got)
        assert list(got.classes) == sorted(got.domain, key=lambda l: l.uid)
        # classes are numbered in uid order of their least labels
        assert [min(m) for m in by_number] == sorted(min(m) for m in by_number)
        assert set(by_number) == {frozenset(want.eq_class(a)) for a in want.domain}
        for a in labels:
            for b in labels:
                assert got.identical(a, b) == want.identical(a, b)
                assert got.weakly(a, b) == want.weakly(a, b), (a, b, constraints)
                assert got.strictly(a, b) == want.strictly(a, b), (a, b, constraints)
        assert got.activated == want.activated
        assert got.domain == want.domain
        assert class_pairs(got) == reference_class_pairs(want)
    assert cyclic > 500 and acyclic > 500  # both verdicts are exercised


def test_cycle_names_least_uid_representative():
    a, b, c, d = (fresh_label() for _ in range(4))
    # a dominates the cycle through c and d but is not on it
    with pytest.raises(CycleError) as e:
        closure([weak(a, c), strict(c, d), weak(d, c)])
    assert e.value.label == c
    # b = d: the class {b, d} is represented by b, the lower uid, whichever
    # side of the identity it stands on
    for same in (identity(b, d), identity(d, b)):
        with pytest.raises(CycleError) as e:
            closure([same, strict(c, d), weak(b, c), weak(a, c)])
        assert e.value.label == b
    # a weak cycle is no error; the strict cycle d > c > d is
    with pytest.raises(CycleError) as e:
        closure([weak(a, b), weak(b, a), strict(d, c), strict(c, d)])
    assert e.value.label == c
    # the cycle appears only once the conditional fires
    with pytest.raises(CycleError) as e:
        closure([strict(c, d), strict(b, a), conditional(c, d, d, b), weak(a, c)])
    assert e.value.label == a


def test_long_chain_closes_quickly():
    labels = [fresh_label() for _ in range(200)]
    chain, tops = labels[:180], labels[180:]
    constraints = [(strict if i % 2 else weak)(chain[i], chain[i + 1])
                   for i in range(len(chain) - 1)]
    # each top's conditional fires one round after the previous top's
    constraints.append(conditional(chain[0], chain[2], tops[0], chain[0]))
    constraints += [conditional(tops[k], chain[2], tops[k + 1], tops[k])
                    for k in range(len(tops) - 1)]
    constraints.append(conditional(chain[3], chain[1], tops[0], chain[9]))  # never fires
    start = time.monotonic()
    c = closure(constraints)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"closure took {elapsed:.3f}s"
    assert len(c.activated) == len(tops)
    assert c.strictly(tops[-1], chain[-1])
    assert not c.weakly(chain[0], tops[0])
