"""Per-layer attribution from the spans of a traced phase.

A span's *self time* is its duration minus the part of its interval that its
child spans cover.  Every request's spans share one trace, rooted at the
benchmark's own ``bench.request`` span around the ``execute`` call, so the
self times of one trace add up to the request's client-side time.  The
``untraced`` layer is that root's self time: client-side time no library span
covers, which today includes the session-lock wait and the journal commit
(both run outside ``service.request``).
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

#: span-name prefix -> layer, first match wins
LAYER_OF = (
    ("bench.request", "untraced"),
    ("service.", "service"),
    ("plan.run", "executors"),
    ("executor.worker", "plans"),
    ("plan.stage.", "plans"),
    ("solve.", "operators"),
    ("kernel.", "private"),
)
LAYERS = tuple(dict.fromkeys(layer for _, layer in LAYER_OF))


def layer_of(name: str) -> str:
    for prefix, layer in LAYER_OF:
        if name.startswith(prefix):
            return layer
    return "untraced"


def self_times(spans) -> dict:
    """span_id -> self time in seconds."""
    children = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append(span)
    result = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for lo, hi in sorted((c.start, c.end) for c in children.get(span.span_id, ())):
            lo, hi = max(lo, reach, span.start), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.span_id] = max(span.duration - covered, 0.0)
    return result


def p50_ms(values) -> float:
    return float(np.median(values)) * 1e3 if values else 0.0


def attribute(spans, stage: str = "loop") -> dict:
    """Aggregate the traces whose ``bench.request`` root ran in ``stage``."""
    by_trace = defaultdict(list)
    for span in spans:
        by_trace[span.trace_id].append(span)
    selfs = self_times(spans)

    out = {
        "requests": 0,
        "client": [],
        "root": [],
        "overhead": [],
        "dispatch": [],
        "by_kind": defaultdict(list),
        "plan_run": defaultdict(list),
        "self_by_name": defaultdict(float),
        "self_by_layer": defaultdict(float),
        "self_by_solver": defaultdict(float),
        "lsmr_iterations": 0,
        "factorize_s": 0.0,
    }
    for trace in by_trace.values():
        roots = [s for s in trace if s.name == "bench.request" and s.parent_id is None]
        if len(roots) != 1 or roots[0].attributes.get("stage") != stage:
            continue
        root = roots[0]
        out["requests"] += 1
        client = root.duration
        out["client"].append(client)
        out["by_kind"][root.attributes.get("kind")].append(client)
        first = {}
        for span in trace:
            first.setdefault(span.name, span)
            out["self_by_name"][span.name] += selfs[span.span_id]
            out["self_by_layer"][layer_of(span.name)] += selfs[span.span_id]
            if span.name == "solve.least_squares":
                method = span.attributes.get("method")
                out["self_by_solver"][method] += selfs[span.span_id]
                if method == "lsmr":
                    out["lsmr_iterations"] += int(span.attributes.get("iterations", 0))
            if span.name == "solve.build_normal_equations":
                out["self_by_solver"]["normal"] += selfs[span.span_id]
                out["factorize_s"] += span.duration
        if "service.request" in first:
            out["root"].append(first["service.request"].duration)
        run = first.get("plan.run")
        if run is not None:
            out["overhead"].append(client - run.duration)
            out["plan_run"][root.attributes.get("plan")].append(run.duration)
            worker = first.get("executor.worker")
            if worker is not None:
                out["dispatch"].append(run.duration - worker.duration)
    return out


def per_request_ms(total_seconds: float, requests: int) -> float:
    return total_seconds * 1e3 / requests if requests else 0.0


def self_ms(agg: dict, prefix: str) -> float:
    total = sum(v for name, v in agg["self_by_name"].items() if name.startswith(prefix))
    return per_request_ms(total, agg["requests"])


def span_coverage(agg: dict) -> float:
    client = math.fsum(agg["client"])
    return math.fsum(agg["root"]) / client if client else 0.0
