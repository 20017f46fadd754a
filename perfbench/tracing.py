"""Call timing for the benchmark, with optional spans.

A ``Recorder`` times every program call the benchmark makes and sums the
wall time per call name; the end-to-end figures come from these sums. With
tracing on it also keeps one span per call (name, start, end, parent) in
memory, for the per-layer figures and the trace file written at the end.
A span's layer is its name up to the first dot (``planner.build_ris_model``
belongs to ``planner``); ``bench`` spans are the benchmark's own rounds and
cells.
Spans recorded after a round, outside its timing, go in a phase of their
own, so they add to no self time.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Recorder:
    def __init__(self, trace: bool):
        self.trace = trace
        self.spans: list[dict] = []
        self.totals: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.phase = "setup"

    def reset_totals(self) -> None:
        self.totals = defaultdict(float)

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        if self.trace:
            sid = len(self.spans)
            self.spans.append({"id": sid, "name": name, "phase": self.phase,
                               "parent": self._stack[-1] if self._stack else None,
                               "start": start, "end": None})
            self._stack.append(sid)
        try:
            yield
        finally:
            end = time.perf_counter()
            self.totals[name] += end - start
            if self.trace:
                self._stack.pop()
                self.spans[sid]["end"] = end

    def add_child(self, name: str, duration: float) -> None:
        """Record a span measured inside the program (only its duration is
        known) as a child of the innermost open span, placed at its end."""
        self.totals[name] += duration
        if self.trace:
            now = time.perf_counter()
            self.spans.append({"id": len(self.spans), "name": name, "phase": self.phase,
                               "parent": self._stack[-1] if self._stack else None,
                               "start": now - duration, "end": now, "measured_inside": True})


COST_SPANS, COST_REPEATS = 10_000, 5


def span_cost_s() -> float:
    """What tracing adds to one span: the best time of COST_SPANS traced
    empty spans minus the best time of as many untraced ones, divided by
    COST_SPANS."""
    best = {}
    for trace in (False, True):
        times = []
        for _ in range(COST_REPEATS):
            rec = Recorder(trace)
            start = time.perf_counter()
            for _ in range(COST_SPANS):
                with rec.span("bench.empty"):
                    pass
            times.append(time.perf_counter() - start)
        best[trace] = min(times)
    return (best[True] - best[False]) / COST_SPANS


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def phase_sums(spans: list[dict], phase: str) -> tuple[dict[str, float], dict[str, float]]:
    """Total time per span name and self time per layer over one phase.

    Self time is a span's duration minus the durations of its direct
    children; spans of one phase never overlap except by nesting.
    """
    by_name: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    chosen = [s for s in spans if s["phase"] == phase]
    for s in chosen:
        d = s["end"] - s["start"]
        by_name[s["name"]] += d
        self_time[layer_of(s["name"])] += d
    index = {s["id"]: s for s in spans}
    for s in chosen:
        if s["parent"] is not None:
            parent = index[s["parent"]]
            self_time[layer_of(parent["name"])] -= s["end"] - s["start"]
    return dict(by_name), dict(self_time)
