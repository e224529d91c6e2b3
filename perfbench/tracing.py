"""In-memory spans around calls into the program's layers.

A span records (name, start, end, parent, operation id, probe kind).  A
top-level span is one checked operation of a workload; its children are
calls into the public functions of the layers.  Spans stay in memory and
are written out once, when the pass ends.

Probe kinds:

* ``None``: the call the workload makes in every run, traced or not.
* ``"fill"``: an inner layer called first, on the same inputs, so that its
  memo is warm when the outer call runs.  The work moves out of the outer
  span; it is not repeated.
* ``"repeat"``: an inner layer called on the same inputs only to time it;
  the outer call does the work again.  Repeat probes are reported as layer
  times but left out of the tracing overhead.

A disabled tracer hands out one shared no-op context, so an untraced run
makes the same calls with next to no added cost.
"""

from __future__ import annotations

import contextlib
import time

COVERAGE_WARNING = 0.90

_NULL = contextlib.nullcontext()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, record):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        self.tracer._stack.append(self.record["id"])
        self.record["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._ops = 0

    def _open(self, name, op, probe):
        record = {"id": len(self.spans), "name": name, "start": None, "end": None,
                  "parent": self._stack[-1] if self._stack else None,
                  "op": op, "probe": probe}
        self.spans.append(record)
        return _Span(self, record)

    def op(self, name: str):
        """Top-level span of one checked operation; opens a new operation id."""
        if not self.enabled:
            return _NULL
        self._ops += 1
        return self._open(name, self._ops, None)

    def span(self, name: str, probe=None):
        """Span around one call into a layer, inside the current operation."""
        if not self.enabled:
            return _NULL
        return self._open(name, self._ops, probe)


def analyse(spans: list[dict], traced_wall: float) -> dict:
    """Self time per layer, coverage per operation, and repeat-probe time.

    A span's self time is its duration minus the durations of its direct
    children.  An operation's coverage is the share of its duration that
    its direct children (the layer spans) cover.
    """
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    layers: dict[str, float] = {}
    probes: dict[str, str] = {}
    ops = []
    repeat = 0.0
    for s in spans:
        kids = children.get(s["id"], [])
        covered = sum(dur(k) for k in kids)
        if s["parent"] is None:
            ops.append({"name": s["name"], "op": s["op"], "seconds": dur(s),
                        "covered": covered,
                        "coverage": covered / dur(s) if dur(s) > 0 else 1.0})
            continue
        layers[s["name"]] = layers.get(s["name"], 0.0) + dur(s) - covered
        if s["probe"]:
            probes[s["name"]] = s["probe"]
        if s["probe"] == "repeat":
            repeat += dur(s)
    op_total = sum(o["seconds"] for o in ops)
    covered_total = sum(o["covered"] for o in ops)
    uncovered = [o for o in ops if o["coverage"] < COVERAGE_WARNING]
    return {
        "layers": layers,
        "probes": probes,
        "ops": ops,
        "repeat_probe_s": repeat,
        "traced_total_s": traced_wall - repeat,
        "coverage": covered_total / traced_wall if traced_wall > 0 else 1.0,
        "op_coverage": covered_total / op_total if op_total > 0 else 1.0,
        "uncovered": uncovered,
    }
