"""Tests of the benchmark's own inputs and expected outputs.

    python3 -m pytest bench/test_bench.py
"""

import json
import random
import sys

import pytest

import worker
from worker import EXPECTED, ROOT, ORACLE_RECHECK_S, session_udrs, shape_digest
from workloads import CATALOGUES, LITERALS, fill, generate, read_vocabulary

sys.path.insert(0, str(ROOT / "tests"))
from oracle import oracle_count  # noqa: E402

VOCAB = read_vocabulary()
TABLE = json.loads(EXPECTED.read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", sorted(CATALOGUES))
def test_generator_is_deterministic_in_its_seed(workload):
    shapes = CATALOGUES[workload]()
    assert shapes == CATALOGUES[workload]()
    first = [i.text for i in generate(shapes, 7, VOCAB)]
    assert first == [i.text for i in generate(shapes, 7, VOCAB)]
    assert first != [i.text for i in generate(shapes, 8, VOCAB)]
    assert sorted(i.shape.key for i in generate(shapes, 8, VOCAB)) == \
        sorted(s.key for s in shapes)


@pytest.mark.parametrize("workload", sorted(CATALOGUES))
def test_inputs_use_only_lexicon_words(workload):
    lexicon = worker.Lexicon.default()
    for inp in generate(CATALOGUES[workload](), 3, VOCAB):
        unknown = {w.rstrip(".").lower() for w in inp.text.split()
                   if w.rstrip(".").lower() not in lexicon}
        if "X" in inp.shape.text:
            assert len(unknown) == 1, inp.text
        else:
            assert not unknown, inp.text


def test_literal_words_are_in_the_lexicon():
    lexicon = worker.Lexicon.default()
    assert all(w in lexicon for w in LITERALS)


@pytest.mark.parametrize("workload", sorted(CATALOGUES))
def test_table_covers_every_shape(workload):
    assert {s.key for s in CATALOGUES[workload]()} == set(TABLE[workload])


def _oracle_fast_shapes():
    for workload, catalogue in sorted(CATALOGUES.items()):
        for shape in catalogue():
            oracle_s = TABLE[workload][shape.key].get("oracle_s")
            if oracle_s is not None and oracle_s <= ORACLE_RECHECK_S:
                yield workload, shape


def test_expected_counts_agree_with_the_oracle_on_small_cases():
    checked = 0
    for seed, (workload, shape) in enumerate(_oracle_fast_shapes()):
        inp = fill(shape, random.Random(seed), VOCAB)
        want = TABLE[workload][shape.key]["readings"]
        assert oracle_count(session_udrs(inp)) == want, inp.text
        out, _ = worker.plain_op(inp, worker.Lexicon.default(), True)
        assert out.readings == want, inp.text
        checked += 1
    assert checked >= 100


def test_construct_digest_does_not_depend_on_the_words():
    lexicon = worker.Lexicon.default()
    for shape in CATALOGUES["construct"]()[:6]:
        want = TABLE["construct"][shape.key]
        for seed in (11, 12):
            inp = fill(shape, random.Random(seed), VOCAB)
            out, _ = worker.plain_op(inp, lexicon, False)
            if shape.parse_failure:
                assert isinstance(out.raised, worker.ParseFailure)
                continue
            assert shape_digest(json.loads(out.json), inp.placeholders) == want["digest"]
            assert worker.check(inp, out, want) is None


def test_check_rejects_a_wrong_count_and_a_wrong_document():
    shape = CATALOGUES["many-readings"]()[0]
    inp = fill(shape, random.Random(0), VOCAB)
    out = worker.Outcome(readings=TABLE["many-readings"][shape.key]["readings"] + 1)
    assert worker.check(inp, out, TABLE["many-readings"][shape.key]) is not None

    shape = next(s for s in CATALOGUES["construct"]() if not s.parse_failure)
    inp = fill(shape, random.Random(0), VOCAB)
    out, _ = worker.plain_op(inp, worker.Lexicon.default(), False)
    doc = json.loads(out.json)
    doc["conds"] = doc["conds"][:-1]
    wrong = worker.Outcome(json=json.dumps(doc))
    assert worker.check(inp, wrong, TABLE["construct"][shape.key]) is not None
