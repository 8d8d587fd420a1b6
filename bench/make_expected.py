"""Rebuilds bench/expected.json, the expected output of every input shape.

    python3 bench/make_expected.py

For each shape it runs the public path on three word fillings and requires
the same result from each: the reading count for the reading workloads, the
placeholder digest of the ``to_json`` document for construct, or a
ParseFailure where the shape is meant to fail.  Each reading count is also
computed by the brute-force oracle in tests/oracle.py; where the oracle
finishes within ORACLE_LIMIT_S the two must agree, and the entry records how
long the oracle took (runs repeat the oracle check on the fast ones), or
null where it did not finish.
"""

from __future__ import annotations

import json
import random
import signal
import sys
from time import perf_counter

import worker
from worker import (
    EXPECTED, ROOT, CATALOGUES, Outcome, ParseFailure, plain_op, read_vocabulary,
    shape_digest,
)
from workloads import fill

sys.path.insert(0, str(ROOT / "tests"))
from oracle import oracle_count  # noqa: E402
from udrs import parse, tokenize  # noqa: E402

FILL_SEEDS = (0, 1, 2)
ORACLE_LIMIT_S = 20.0   # seconds the oracle may take per shape


class _OracleTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise _OracleTimeout


def timed_oracle(inp) -> tuple[int, float] | None:
    """The oracle's count for an input and its time, or None past the limit."""
    u = worker.session_udrs(inp)
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, ORACLE_LIMIT_S)
    t0 = perf_counter()
    try:
        return oracle_count(u), perf_counter() - t0
    except _OracleTimeout:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def entry(workload: str, shape, vocab, lexicon) -> dict:
    inputs = [fill(shape, random.Random(s), vocab) for s in FILL_SEEDS]
    outcomes: list[Outcome] = [plain_op(i, lexicon, workload != "construct")[0]
                               for i in inputs]
    if shape.parse_failure:
        bad = [o.raised for o in outcomes if not isinstance(o.raised, ParseFailure)]
        if bad:
            raise SystemExit(f"{shape.key}: expected ParseFailure, got {bad[0]!r}")
        return {"parse_failure": True}
    for inp, out in zip(inputs, outcomes):
        if out.raised is not None:
            raise SystemExit(f"{inp.text!r}: {out.raised!r}")
        derivations = len(parse(tokenize(inp.text), lexicon))
        if derivations != 1:
            raise SystemExit(f"{inp.text!r}: {derivations} derivations, want 1")
    if workload == "construct":
        digests = {shape_digest(json.loads(o.json), i.placeholders)
                   for i, o in zip(inputs, outcomes)}
        if len(digests) != 1:
            raise SystemExit(f"{shape.key}: digest depends on the words chosen")
        return {"digest": digests.pop()}
    counts = {o.readings for o in outcomes}
    if len(counts) != 1:
        raise SystemExit(f"{shape.key}: reading count depends on the words: {counts}")
    readings = counts.pop()
    checked = timed_oracle(inputs[0])
    if checked is not None and checked[0] != readings:
        raise SystemExit(f"{inputs[0].text!r}: {readings} readings, oracle {checked[0]}")
    return {"readings": readings,
            "oracle_s": None if checked is None else round(checked[1], 4)}


def main() -> int:
    vocab = read_vocabulary()
    lexicon = worker.Lexicon.default()
    table = {}
    for workload, catalogue in CATALOGUES.items():
        table[workload] = {}
        for shape in catalogue():
            table[workload][shape.key] = e = entry(workload, shape, vocab, lexicon)
            print(workload, e, shape.key[:60], flush=True)
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
