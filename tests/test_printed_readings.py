"""Every printed reading of the reading-heavy benchmark catalogues, by digest.

For each of the deep-scope, wide-discourse and many-readings catalogues of
``bench/workloads.py`` at seeds 7 and 8, every input is built with its
directives and rules as the benchmark builds it, and every reading
``enumerate_readings`` keeps is printed by ``render_drs`` and
``drs_to_json``.  One SHA-256 over the inputs and those bytes, per
catalogue and seed, must equal the one recorded in
``printed_readings.json`` beside this file: a change to any printed
reading, to which readings dedup keeps or to their order shows as a new
digest.  After a deliberate change, print the new digests with
``python tests/test_printed_readings.py`` (udrs installed, or with
``PYTHONPATH=src``) and record them.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDED = Path(__file__).resolve().parent / "printed_readings.json"
CATALOGUES = ("deep-scope", "wide-discourse", "many-readings")
SEEDS = (7, 8)


def printed_digest(catalogue: str, seed: int) -> str:
    """The SHA-256 of each input's text and its readings as printed, or the
    error it raises, in the catalogue's order at the seed."""
    from udrs import KnowledgeRules, UDRSError, build_session
    from udrs.readings import drs_to_json, enumerate_readings, render_drs
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        from workloads import CATALOGUES as MAKERS, RULES, generate, read_vocabulary
    finally:
        sys.path.remove(str(ROOT / "bench"))
    digest = hashlib.sha256()
    for inp in generate(MAKERS[catalogue](), seed, read_vocabulary()):
        digest.update(inp.text.encode() + b"\n")
        rules = KnowledgeRules.from_file(str(RULES)) if inp.shape.rules else None
        try:
            session, _ = build_session(inp.text, None, rules)
            for index, verdict in inp.shape.directives:
                session.disambiguate(index, verdict)
            readings = enumerate_readings(session.udrs)
        except UDRSError as e:
            digest.update(f"{type(e).__name__}: {e}\n".encode())
            continue
        for d in readings:
            digest.update(render_drs(d).encode() + b"\n")
            digest.update(json.dumps(drs_to_json(d)).encode() + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("catalogue", CATALOGUES)
def test_printed_readings_are_unchanged(catalogue, seed):
    recorded = json.loads(RECORDED.read_text(encoding="utf-8"))
    assert printed_digest(catalogue, seed) == recorded[f"{catalogue} {seed}"]


if __name__ == "__main__":
    print(json.dumps({f"{c} {s}": printed_digest(c, s) for c in CATALOGUES for s in SEEDS},
                     indent=2))
