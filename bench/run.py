"""The udrs benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; it imports udrs from ``src/`` there.
Workloads, metrics and bounds are listed in BENCHMARK.json.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

This process imports nothing from udrs.  It runs the workload in a fresh
interpreter (bench/worker.py) and times set-up in several more, half of
them before the workload and half after, so that their median spans the
machine's speed over the whole run.  Every child gets the same hash seed,
so both sides of a comparison hash, and therefore iterate sets, alike.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import CATALOGUES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 10
CHILD_ENV = {"PYTHONHASHSEED": "0"}


def child(args: list[str], timeout: float) -> dict:
    """Run a bench script in a fresh interpreter; its last line is JSON."""
    env = dict(os.environ, **CHILD_ENV)
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, timeout=timeout, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description="udrs benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(CATALOGUES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    def probe() -> dict:
        return child([str(BENCH / "probe.py")], 30)

    probes = [probe() for _ in range(SETUP_SAMPLES // 2)]
    result = child([str(BENCH / "worker.py"), "--workload", args.workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace)], 2 * args.seconds + 60)
    probes += [probe() for _ in range(SETUP_SAMPLES - len(probes))]

    def median(key: str) -> float:
        return statistics.median(p[key] for p in probes)

    metrics = result["metrics"]
    if args.trace:
        metrics["setup.import_ms"] = {"value": median("import_s") * 1e3, "unit": "ms"}
        metrics["setup.lexicon_ms"] = {"value": median("lexicon_s") * 1e3, "unit": "ms"}
    else:
        metrics["setup_s"] = {"value": median("setup_s"), "unit": "s"}
    failed_frac = result["failed"] / result["attempted"]
    for name, m in metrics.items():
        print(f"{args.workload:>15} {name:<28} {m['value']:>14.6g} {m['unit']}")
    print(f"{args.workload:>15} {'failed_frac':<28} {failed_frac:>14.6g} "
          f"({result['failed']} of {result['attempted']} ops)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
