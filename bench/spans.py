"""In-memory spans for the traced benchmark run.

A span records one call into a udrs layer: its name, start and end (from
``time.perf_counter_ns``), the index of the enclosing span and the id of
the op it belongs to.  Spans stay in memory until ``write`` at exit.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []     # [name, start_ns, end_ns, parent, op]
        self.stack: list[int] = []
        self.op = 0

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def wrap(self, name: str, fn):
        """fn, recording a span around each call."""
        def traced(*args, **kwargs):
            with _Span(self, name):
                return fn(*args, **kwargs)
        return traced

    def self_times_ns(self) -> dict[str, int]:
        """Total self time per span name: duration minus child durations."""
        child = defaultdict(int)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, int] = defaultdict(int)
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('["name", "start_ns", "end_ns", "parent", "op"]\n')
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        parent = tracer.stack[-1] if tracer.stack else -1
        self.index = len(tracer.spans)
        tracer.spans.append([name, 0, 0, parent, tracer.op])

    def __enter__(self) -> "_Span":
        self.tracer.stack.append(self.index)
        self.tracer.spans[self.index][1] = perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.spans[self.index][2] = perf_counter_ns()
        self.tracer.stack.pop()
