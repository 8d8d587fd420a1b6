"""Runs one benchmark workload in this interpreter and prints its result.

Started by bench/run.py with a fixed hash seed.  One closed-loop client:
the next input is sent when the previous one returns.  The loop makes whole
passes over the workload's inputs until the time is spent, so every run
measures the same mix of shapes.  Each op builds its input from text in a
fresh Session and runs the public path of ``udrs parse``: ``--json`` for
construct, ``--readings`` (enumerate and render) for the other workloads.
``ops_per_s`` divides the ops by the time spent inside those calls; output
checks run between ops, outside that time.  ``latency_p50_ms`` and
``latency_p90_ms`` are smoothed percentiles over every op of the run (see
``_smoothed_percentile``); a run makes at least 100 ops at the seed, so at
least ten lie beyond p90.

With ``--trace 1`` every input runs untraced and traced in turn.  The
traced run records a span around each call into a udrs layer
and runs ``enumerate_readings`` as its public steps (enumerate_scopings,
build_drs, check_binding, canonical_form), checking that the split run
finds as many readings as ``enumerate_readings`` did untraced.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import udrs  # noqa: E402
import udrs.cli  # noqa: E402
from udrs import (  # noqa: E402
    KnowledgeRules, Lexicon, ParseFailure, build_drs,
    build_session, canonical_form, check_binding, enumerate_readings,
    enumerate_scopings, from_json, render_drs, to_json, to_json_str,
)

from spans import Tracer  # noqa: E402
from workloads import CATALOGUES, RULES, Input, generate, read_vocabulary  # noqa: E402

EXPECTED = BENCH / "expected.json"
TRACE_DIR = ROOT / ".bench_build" / "trace"
WARMUP_OPS = 3
ORACLE_RECHECK_S = 0.1   # shapes the oracle finished this fast are rechecked

# The calls build_session makes, wrapped in spans during traced passes.
CLI_HOOKS = {"tokenize": "grammar.tokenize", "parse": "grammar.parse",
             "interpret": "principles.interpret",
             "combine_coord": "plurals.sequence"}

# Per-layer metrics: span self times, reported in ms per traced op.
SPAN_METRICS = {
    "cli.build_session": "cli.build_session_ms",
    "grammar.tokenize": "grammar.parse_ms",
    "grammar.parse": "grammar.parse_ms",
    "principles.interpret": "principles.interpret_ms",
    "plurals.sequence": "plurals.sequence_ms",
    "plurals.disambiguate": "plurals.disambiguate_ms",
    "serialize.to_json": "serialize.to_json_ms",
    "readings.search": "readings.search_ms",
    "readings.build": "readings.build_ms",
    "readings.binding": "readings.binding_ms",
    "readings.canon": "readings.canon_ms",
    "readings.render": "readings.render_ms",
    "op": "trace.unattributed_ms",
}
# Per-layer counts, reported per traced op.
COUNT_METRICS = {
    "grammar.derivations": "count/op", "plurals.decided": "count/op",
    "core.labels": "count/op", "core.constraints": "count/op",
    "core.conditions": "count/op", "delay.pending_slots": "count/op",
    "serialize.json_bytes": "B/op", "readings.scopings": "count/op",
    "readings.binding_rejects": "count/op", "readings.dedup_merges": "count/op",
    "readings.readings": "count/op",
}


class BenchError(Exception):
    """The benchmark itself cannot run as set up (not a udrs failure)."""


@dataclass
class Outcome:
    raised: Optional[BaseException] = None
    json: Optional[str] = None
    readings: Optional[int] = None


def _rules(inp: Input) -> Optional[KnowledgeRules]:
    return KnowledgeRules.from_file(str(RULES)) if inp.shape.rules else None


def session_udrs(inp: Input):
    """The input's UDRS after construction and directives (for checks)."""
    session, _ = build_session(inp.text, None, _rules(inp))
    for index, verdict in inp.shape.directives:
        session.disambiguate(index, verdict)
    return session.udrs


def plain_op(inp: Input, lexicon: Lexicon, enumerate_: bool) -> tuple[Outcome, int]:
    """The untraced public path; returns the outcome and its wall time."""
    rules = _rules(inp)
    t0 = perf_counter_ns()
    try:
        session, _ = build_session(inp.text, lexicon, rules)
        for index, verdict in inp.shape.directives:
            session.disambiguate(index, verdict)
        if enumerate_:
            readings = enumerate_readings(session.udrs)
            for d in readings:
                render_drs(d)
            out = Outcome(readings=len(readings))
        else:
            out = Outcome(json=to_json_str(session.udrs))
    except Exception as e:  # every exception is an outcome the check judges
        out = Outcome(raised=e)
    return out, perf_counter_ns() - t0


def traced_op(inp: Input, lexicon: Lexicon, enumerate_: bool, tracer: Tracer,
              counts: dict) -> tuple[Outcome, int]:
    """The same op, split into spans at each layer boundary.  Sizes are
    counted after the op's time is taken."""
    rules = _rules(inp)
    readings: list = []
    t0 = perf_counter_ns()
    try:
        with tracer.span("op"):
            with tracer.span("cli.build_session"):
                session, _ = build_session(inp.text, lexicon, rules)
            for index, verdict in inp.shape.directives:
                with tracer.span("plurals.disambiguate"):
                    session.disambiguate(index, verdict)
            if enumerate_:
                readings = _split_enumerate_readings(session.udrs, tracer, counts)
                out = Outcome(readings=len(readings))
            else:
                with tracer.span("serialize.to_json"):
                    out = Outcome(json=to_json_str(session.udrs))
    except Exception as e:
        return Outcome(raised=e), perf_counter_ns() - t0
    ns = perf_counter_ns() - t0

    u = session.udrs
    registry = session.ctx.registry
    counts["plurals.decided"] += len(registry.all_keys()) - len(registry.unresolved())
    counts["core.labels"] += len(u.labels())
    counts["core.constraints"] += len(u.subord)
    counts["core.conditions"] += len(u.conds)
    counts["delay.pending_slots"] += len(u.pending_slots())
    if out.json is not None:
        counts["serialize.json_bytes"] += len(out.json.encode("utf-8"))
    for drs in readings:
        counts["readings.referents_max"] = max(counts["readings.referents_max"],
                                               _referent_count(drs))
    counts["readings.readings"] += len(readings)
    return out, ns


def _split_enumerate_readings(u, tracer: Tracer, counts: dict) -> list:
    """enumerate_readings as its public steps, then render_drs on each."""
    with tracer.span("readings.search"):
        scopings = enumerate_scopings(u)
    counts["readings.scopings"] += len(scopings)
    found: dict = {}
    for scoping in scopings:
        with tracer.span("readings.build"):
            drs = build_drs(u, scoping)
        with tracer.span("readings.binding"):
            unbound = check_binding(drs)
        if unbound:
            counts["readings.binding_rejects"] += 1
            continue
        with tracer.span("readings.canon"):
            key = canonical_form(drs)
        if key in found:
            counts["readings.dedup_merges"] += 1
        else:
            found[key] = drs
    for drs in found.values():
        with tracer.span("readings.render"):
            render_drs(drs)
    return list(found.values())


def _referent_count(drs) -> int:
    boxes, refs = [drs], set()
    while boxes:
        box = boxes.pop()
        refs |= box.referents
        for dup in box.duplexes:
            boxes += [dup.res, dup.scope]
    return len(refs)


class _Hooks:
    """Wraps build_session's calls into the grammar, principles and plurals
    layers in spans for the length of a traced pass."""

    def __init__(self, tracer: Tracer, counts: dict) -> None:
        self.saved = {}
        self.wrapped = {}
        for attr, span in CLI_HOOKS.items():
            fn = getattr(udrs.cli, attr, None)
            if fn is None:
                raise BenchError(f"udrs.cli.{attr} is gone; {span} cannot be traced")
            self.saved[attr] = fn
            self.wrapped[attr] = tracer.wrap(span, fn)
        traced_parse = self.wrapped["parse"]

        def parse(*args, **kwargs):
            derivations = traced_parse(*args, **kwargs)
            counts["grammar.derivations"] += len(derivations)
            return derivations
        self.wrapped["parse"] = parse

    def __enter__(self) -> None:
        for attr, fn in self.wrapped.items():
            setattr(udrs.cli, attr, fn)

    def __exit__(self, *exc) -> None:
        for attr, fn in self.saved.items():
            setattr(udrs.cli, attr, fn)


# --- Checks ------------------------------------------------------------------

def shape_digest(doc: dict, placeholders: dict[str, str]) -> str:
    """Digest of a UDRS document with content words put back as placeholders.

    Re-serializing through from_json/to_json renames labels canonically, so
    the digest is the same for every word choice that fills one shape.
    """
    renamed = json.loads(json.dumps(doc))
    for cond in renamed["conds"]:
        if cond["type"] == "pred":
            cond["rel"] = placeholders.get(cond["rel"], cond["rel"])
    canon = to_json(from_json(renamed))
    return hashlib.sha256(json.dumps(canon, sort_keys=True).encode()).hexdigest()


def check(inp: Input, out: Outcome, expected: dict) -> Optional[str]:
    """None when the outcome is right, else what is wrong with it."""
    if inp.shape.parse_failure:
        if isinstance(out.raised, ParseFailure):
            return None
        return f"expected ParseFailure, got {out.raised!r}"
    if out.raised is not None:
        return "".join(traceback.format_exception(out.raised)).rstrip()
    if out.readings is not None:
        if out.readings != expected["readings"]:
            return f"{out.readings} readings, expected {expected['readings']}"
        return None
    doc = json.loads(out.json)
    if to_json(from_json(doc)) != doc:
        return "from_json -> to_json changed the document"
    if shape_digest(doc, inp.placeholders) != expected["digest"]:
        return "to_json digest differs from the expected one"
    return None


def load_expected(workload: str) -> dict:
    table = json.loads(EXPECTED.read_text(encoding="utf-8"))[workload]
    missing = [s.key for s in CATALOGUES[workload]() if s.key not in table]
    if missing:
        raise BenchError(f"{EXPECTED.name} has no entry for {len(missing)} "
                         f"{workload} shape(s); run bench/make_expected.py")
    return table


# --- Runs --------------------------------------------------------------------

def _smoothed_percentile(sorted_ns: list[int], q: float, half_width: float) -> float:
    """Mean of the samples from quantile q - half_width to q + half_width.

    A workload mixes shape classes of quite different cost, so the plain
    percentile can sit in a gap between two classes and jump from one to the
    other with a little noise; the mean over a window around it moves
    smoothly instead.
    """
    n = len(sorted_ns)
    lo = math.floor((q - half_width) * n)
    hi = max(lo + 1, math.ceil((q + half_width) * n))
    window = sorted_ns[lo:hi]
    return sum(window) / len(window)


class Run:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.enumerate_ = workload != "construct"
        self.expected = load_expected(workload)
        self.inputs = generate(CATALOGUES[workload](), seed,
                               read_vocabulary())
        self.lexicon = Lexicon.default()
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, inp: Input, out: Outcome, problem: Optional[str] = None) -> None:
        self.attempted += 1
        problem = problem or check(inp, out, self.expected[inp.shape.key])
        if problem is not None:
            self.failures.append(f"{inp.text!r} {inp.shape.directives}: {problem}")

    def oracle_check(self) -> None:
        """Compare expected counts with tests/oracle.py on this run's words."""
        sys.path.insert(0, str(ROOT / "tests"))
        from oracle import oracle_count
        for inp in self.inputs:
            oracle_s = self.expected[inp.shape.key].get("oracle_s")
            if oracle_s is None or oracle_s > ORACLE_RECHECK_S:
                continue
            self.attempted += 1
            want = self.expected[inp.shape.key]["readings"]
            got = oracle_count(session_udrs(inp))
            if got != want:
                self.failures.append(f"{inp.text!r}: oracle finds {got} readings, "
                                     f"expected {want}")

    def warm_up(self) -> None:
        for inp in self.inputs[:WARMUP_OPS]:
            plain_op(inp, self.lexicon, self.enumerate_)
        gc.collect()
        gc.freeze()

    def untraced(self, seconds: float) -> dict:
        latencies: list[int] = []
        start = perf_counter()
        passes = 0
        while True:
            for inp in self.inputs:
                out, ns = plain_op(inp, self.lexicon, self.enumerate_)
                latencies.append(ns)
                self.record(inp, out)
            passes += 1
            elapsed = perf_counter() - start
            if elapsed + elapsed / passes / 2 >= seconds:
                break
        latencies.sort()
        print(f"{self.workload}: {len(latencies)} ops in {passes} passes, "
              f"{len(latencies) - math.ceil(0.9 * len(latencies))} beyond p90",
              file=sys.stderr)
        return {
            "ops_per_s": (len(latencies) / (sum(latencies) / 1e9), "1/s"),
            "latency_p50_ms": (_smoothed_percentile(latencies, 0.50, 0.10) / 1e6, "ms"),
            "latency_p90_ms": (_smoothed_percentile(latencies, 0.90, 0.05) / 1e6, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    def traced(self, seconds: float, trace_path: Path) -> dict:
        tracer = Tracer()
        counts: dict = defaultdict(int)
        hooks = _Hooks(tracer, counts)
        plain_ns = traced_ns = 0
        traced_ops = passes = 0
        start = perf_counter()
        while True:
            # each input runs untraced and traced back to back, so both see
            # the same machine state; which goes first alternates by pass
            for inp in self.inputs:
                for traced in ((False, True), (True, False))[passes % 2]:
                    if traced:
                        tracer.op += 1
                        with hooks:
                            t_out, ns = traced_op(inp, self.lexicon, self.enumerate_,
                                                  tracer, counts)
                        traced_ns += ns
                        traced_ops += 1
                    else:
                        p_out, ns = plain_op(inp, self.lexicon, self.enumerate_)
                        plain_ns += ns
                self.record(inp, p_out)
                mismatch = None
                if t_out.readings != p_out.readings:
                    mismatch = (f"split run found {t_out.readings} readings, "
                                f"enumerate_readings {p_out.readings}")
                self.record(inp, t_out, mismatch)
            passes += 1
            elapsed = perf_counter() - start
            if elapsed + elapsed / passes / 2 >= seconds:
                break
        tracer.write(trace_path)

        metrics = {name: (0.0, "ms/op") for name in SPAN_METRICS.values()}
        for span, ns in tracer.self_times_ns().items():
            name = SPAN_METRICS[span]
            metrics[name] = (metrics[name][0] + ns / 1e6 / traced_ops, "ms/op")
        for name, unit in COUNT_METRICS.items():
            metrics[name] = (counts[name] / traced_ops, unit)
        metrics["readings.referents_max"] = (counts["readings.referents_max"], "count")
        metrics["readings.useful_ratio"] = (
            counts["readings.readings"] / counts["readings.scopings"]
            if counts["readings.scopings"] else 0.0, "ratio")
        metrics["trace.op_ms"] = (traced_ns / 1e6 / traced_ops, "ms/op")
        # the drop in ops_per_s from untraced to traced passes over the same inputs
        metrics["trace.overhead_pct"] = (100 * (1 - plain_ns / traced_ns), "%")
        return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(CATALOGUES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not Path(udrs.__file__).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"imported udrs from {udrs.__file__}, not from this checkout")
    gc.set_threshold(700, 10, 10)
    run = Run(args.workload, args.seed)
    run.warm_up()
    if args.trace:
        path = TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl"
        metrics = run.traced(args.seconds, path)
    else:
        metrics = run.untraced(args.seconds)
    run.oracle_check()   # after peak_rss_mb is read: the oracle is not udrs
    for problem in run.failures[:5]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(3)
