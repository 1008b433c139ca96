"""Spans around the benchmark's calls into fdek's layers, and the per-layer
metrics computed from them.

A span records its name, start, end, parent span and a few attributes
(the work it covered: formula nodes, model cells, rule applications).  The
spans stay in memory and are written out as JSON lines when the run ends.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("sid", "parent", "name", "start", "end", "attrs")

    def __init__(self, sid, parent, name, attrs):
        self.sid, self.parent, self.name, self.attrs = sid, parent, name, attrs
        self.start = time.perf_counter()
        self.end = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.last: Span | None = None

    @contextmanager
    def span(self, name: str, **attrs):
        rec = Span(len(self.spans), self._open[-1] if self._open else None, name, attrs)
        self.spans.append(rec)
        self._open.append(rec.sid)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._open.pop()
            self.last = rec

    def self_times(self) -> dict[int, float]:
        own = {s.sid: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.sid, "parent": s.parent, "name": s.name,
                                     "start": s.start, "end": s.end, "attrs": s.attrs}) + "\n")


def call(tr: Tracer | None, name: str, attrs: dict, fn, *args, **kwargs):
    """Call ``fn``; inside a span named ``name`` when tracing."""
    if tr is None:
        return fn(*args, **kwargs)
    with tr.span(name, **attrs):
        return fn(*args, **kwargs)


# (metric, unit, span name, numerator scale, attribute holding the base or
# None for a mean per span).  Spans marked probe=True come from the fixed
# probe and are used only when the workload itself made no such call.
RATIOS = [
    ("syntax.parse_us_per_node", "us", "syntax.parse", 1e6, "nodes"),
    ("syntax.render_us_per_node", "us", "syntax.render", 1e6, "nodes"),
    ("syntax.hash_us_per_node", "us", "syntax.hash", 1e6, "nodes"),
    ("semantics.eval_us_per_node_world", "us", "semantics.eval", 1e6, "node_worlds"),
    ("tableau.us_per_rule", "us", "tableau.prove", 1e6, "rules"),
    ("tableau.step_us_per_item", "us", "tableau.step", 1e6, "items"),
    ("tableau.copy_us_per_item", "us", "tableau.copy", 1e6, "items"),
    ("tableau.extract_ms", "ms", "tableau.extract", 1e3, None),
    ("tableau.serialize_ms", "ms", "tableau.serialize", 1e3, None),
    ("bulkeval.build_ns_per_cell", "ns", "bulkeval.build", 1e9, "cells"),
    ("bulkeval.supports_ns_per_cell_op", "ns", "bulkeval.supports", 1e9, "cell_ops"),
    ("analysis.countermodel_valid_ms", "ms", "analysis.countermodel_valid", 1e3, None),
    ("analysis.countermodel_invalid_ms", "ms", "analysis.countermodel_invalid", 1e3, None),
    ("analysis.definability_ms", "ms", "analysis.definability", 1e3, None),
    ("analysis.enumerate_us_per_formula", "us", "analysis.enumerate", 1e6, "formulas"),
    ("analysis.scan_us_per_formula", "us", "analysis.scan", 1e6, "formulas"),
]
COUNTS = [("tableau.rule_applications", "rules"), ("tableau.splits", "splits"),
          ("tableau.worlds_created", "worlds_created")]
PEAK = "bulkeval.peak_array_mb"


def layer_metrics(tr: Tracer, round_counts: dict, peak_bytes: int) -> dict:
    """Per-layer metrics from the spans of the traced rounds.

    ``round_counts`` holds the tableau counts of one traced round (they
    repeat exactly from round to round); ``peak_bytes`` is the largest
    tracemalloc peak seen around a bulk evaluation."""
    own = tr.self_times()
    by_name: dict[tuple[str, bool], list[Span]] = {}
    for s in tr.spans:
        by_name.setdefault((s.name, bool(s.attrs.get("probe"))), []).append(s)
    out = {}
    for metric, unit, name, scale, base in RATIOS:
        spans = by_name.get((name, False)) or by_name.get((name, True)) or []
        total = sum(own[s.sid] for s in spans)
        denom = sum(s.attrs[base] for s in spans) if base else len(spans)
        out[metric] = {"value": total * scale / denom if denom else 0.0, "unit": unit}
    for metric, key in COUNTS:
        out[metric] = {"value": round_counts.get(key, 0), "unit": "count"}
    out[PEAK] = {"value": peak_bytes / 2 ** 20, "unit": "MB"}
    return out


def latency_summary(samples: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"samples": n}
    if n >= 40:
        out["tail_ms"] = ordered[n - 11] * 1e3
        out["tail_percentile"] = 100.0 * (n - 10) / n
    return out
