"""Repository benchmark: closed-loop workloads against ``PlanScheduler``.

Run one workload from the repository root::

    python3 perfbench/run.py --workload paper_1d --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up runs
a fixed number of times per workload (the median is ``setup_s``), then the
clients run for ``--seconds`` and a fixed check round follows.  ``--trace 1``
is the separate traced run: one untraced service and one traced service,
each set up once, run in alternating slices of ``--seconds`` in total; they
give the per-layer metrics, the tracing overhead, and a check that tracing
changes no released answer.  The spans are written once at the end to
``.bench_out/``.

Human-readable lines go first; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Any failed
correctness check makes the exit code 1.  ``--workload all`` runs every
workload in turn (the last line then maps each workload to its result), and
``--describe`` prints the workloads' notes and the plans no workload covers.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: Unix socket paths (the fork server's, the artifact manager's) are limited
#: to ~107 bytes; the longest one created under the work directory adds ~50.
_SOCKET_ROOM = 100

#: slices per service in the traced run, run untraced/traced in ABBA order
TRACE_SLICES = 4


def _workdir() -> Path:
    """Working space inside the checkout, for multiprocessing's sockets too."""
    work = ROOT / ".bench_work"
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    where = str(tmp)
    if len(where) > _SOCKET_ROOM - 50:
        where = os.path.relpath(where)
    tempfile.tempdir = where
    os.environ["TMPDIR"] = where
    return work


def _stop_helpers() -> None:
    """Stop the fork server and resource tracker multiprocessing started."""
    import multiprocessing.forkserver as forkserver
    import multiprocessing.resource_tracker as resource_tracker

    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        try:
            helper._stop()
        except Exception:
            pass


def _counter(metrics, name: str, **labels) -> float:
    counters, _, _ = metrics.instruments()
    want = set(labels.items())
    return sum(c.value for c in counters if c.name == name and want <= set(c.labels))


def _histogram(metrics, name: str, field: str) -> float:
    _, _, histograms = metrics.instruments()
    return sum(getattr(h, field) for h in histograms if h.name == name)


def _registry_state(service) -> dict:
    """Cumulative counters a measured phase is the difference of."""
    metrics = service.scheduler.metrics
    return {
        "queue_s": _histogram(metrics, "service_request_queue_wait_seconds", "total"),
        "queue_n": _histogram(metrics, "service_request_queue_wait_seconds", "count"),
        "commit_s": _histogram(metrics, "service_journal_commit_seconds", "total"),
        "commit_n": _histogram(metrics, "service_journal_commit_seconds", "count"),
        "m_hits": _counter(metrics, "cache_hits", cache="measurement"),
        "m_misses": _counter(metrics, "cache_misses", cache="measurement"),
        "a_hits": _counter(metrics, "cache_hits", cache="artifact"),
        "a_misses": _counter(metrics, "cache_misses", cache="artifact"),
        "charges": sum(s.budget_snapshot().num_charges for s in service.sessions),
        "journal": service.journal_bytes(),
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def measure(workload, args) -> tuple[dict, list, int, int]:
    """One end-to-end run: returns (metrics, problems, attempted, failed)."""
    import gc

    import harness

    work = _workdir()
    tenants = workload.data(args.seed, args.tiny)
    traffic = workload.traffic(args.seed, args.tiny, tenants)
    del tenants
    setups = []
    for k in range(workload.setups):
        phase = harness.Phase(f"setup{k}")
        service, seconds = harness.setup(workload, args.seed, args.tiny, work, traffic, phase)
        setups.append(seconds)
        if k + 1 == workload.setups:
            break
        problems = harness.phase_problems(phase)
        service.close()
        del service
        gc.collect()
        if problems:
            return {}, problems, phase.attempted, len(phase.failures)
    throughput = harness.run_loop(
        service, traffic.new_stream(), args.seconds, phase, rss_after=workload.rss_after
    )
    harness.verify(service, traffic, phase)
    peak = phase.peak_rss_mb or harness.peak_rss_mb()
    service.close()
    loop = [s.seconds for s in phase.loop_samples()]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_rps": (throughput, "req/s"),
        "latency_p50_ms": (harness.percentile_ms(loop, 50), "ms"),
        "latency_p95_ms": (harness.percentile_ms(loop, 95), "ms"),
        "latency_p99_ms": (harness.percentile_ms(loop, 99), "ms"),
        "workload_error": (harness.workload_error(phase), "scaled_l2"),
        "peak_rss_mb": (peak, "MB"),
    }
    failed = len(phase.failures)
    info = {
        "samples": len(loop),
        "beyond_p99": len(loop) - int(0.99 * len(loop)),
        "failed_share": _ratio(failed, phase.attempted),
        "setups_s": [round(s, 4) for s in setups],
        "plan_p50_ms": {
            slug: round(harness.percentile_ms([s.seconds for s in phase.loop_samples() if s.slug == slug], 50), 2)
            for slug in workload.slugs
        },
        "clients": [(n, round(busy, 2)) for n, busy in phase.clients],
    }
    print(f"# {workload.name}: {json.dumps(info)}")
    return metrics, harness.phase_problems(phase) + phase.failures, phase.attempted, failed


def traced(workload, args) -> tuple[dict, list, int, int]:
    """The traced run: per-layer metrics plus the tracing-overhead check."""
    import harness
    import layers
    from repro.telemetry import Tracer, write_chrome_trace, write_jsonlines
    from workloads import WORKLOADS

    work = _workdir()
    tenants = workload.data(args.seed, args.tiny)
    traffic = workload.traffic(args.seed, args.tiny, tenants)
    del tenants
    runs = {}
    for name, tracer in (("untraced", None), ("traced", Tracer())):
        phase = harness.Phase(name)
        service, _ = harness.setup(workload, args.seed, args.tiny, work, traffic, phase, tracer)
        runs[name] = (service, phase, traffic.new_stream(), tracer)
    # Short alternating slices, so that a drift in host speed weighs on both
    # sides alike; the overhead is the median of the paired throughput ratios.
    before = _registry_state(runs["traced"][0])
    rates = {"untraced": [], "traced": []}
    seconds = args.seconds / (2 * TRACE_SLICES)
    for k in range(TRACE_SLICES):
        for name in ("untraced", "traced") if k % 2 == 0 else ("traced", "untraced"):
            service, phase, stream, tracer = runs[name]
            rates[name].append(harness.run_loop(service, stream, seconds, phase, tracer))
    after = _registry_state(runs["traced"][0])
    for service, phase, _, tracer in runs.values():
        harness.verify(service, traffic, phase, tracer)
        service.close()
    overhead = 1.0 - statistics.median(
        _ratio(t, u) for t, u in zip(rates["traced"], rates["untraced"])
    )

    untraced = runs["untraced"][1]
    _, phase, _, tracer = runs["traced"]
    spans = tracer.spans()
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    write_jsonlines(spans, out / f"{workload.name}-spans.jsonl")
    write_chrome_trace(spans, out / f"{workload.name}-trace.json")

    loop = layers.attribute(spans, "loop")
    warm = layers.attribute(spans, "warm")
    n = loop["requests"]
    delta = {k: after[k] - before[k] for k in after}
    metrics = {
        "service.overhead_ms": (layers.p50_ms(loop["overhead"]), "ms"),
        "service.replay_ms": (layers.p50_ms(loop["by_kind"].get("replay", [])), "ms"),
        "service.fresh_ms": (layers.p50_ms(loop["by_kind"].get("fresh", [])), "ms"),
        "service.queue_wait_ms": (_ratio(delta["queue_s"], delta["queue_n"]) * 1e3, "ms"),
        "service.cache_hit_ratio": (_ratio(delta["m_hits"], delta["m_hits"] + delta["m_misses"]), "ratio"),
        "service.artifact_hit_ratio": (_ratio(delta["a_hits"], delta["a_hits"] + delta["a_misses"]), "ratio"),
        "durability.commit_ms": (_ratio(delta["commit_s"], delta["commit_n"]) * 1e3, "ms"),
        "durability.journal_bytes_per_request": (_ratio(delta["journal"], n), "bytes"),
        "executors.dispatch_ms": (layers.p50_ms(loop["dispatch"]), "ms"),
    }
    for stage in ("select", "partition", "measure", "infer"):
        metrics[f"plans.{stage}_ms"] = (layers.self_ms(loop, f"plan.stage.{stage}"), "ms")
    for slug in dict.fromkeys(s for w in WORKLOADS.values() for s in w.slugs):
        metrics[f"plans.{slug}.p50_ms"] = (layers.p50_ms(loop["plan_run"].get(slug, [])), "ms")
    metrics.update({
        "operators.solve_normal_ms": (layers.per_request_ms(loop["self_by_solver"]["normal"], n), "ms"),
        "operators.solve_lsmr_ms": (layers.per_request_ms(loop["self_by_solver"]["lsmr"], n), "ms"),
        "operators.lsmr_iterations": (warm["lsmr_iterations"], "count"),
        "operators.factorize_s": (warm["factorize_s"], "s"),
        "private.measure_ms": (layers.self_ms(loop, "kernel.measure."), "ms"),
        "private.transform_ms": (layers.self_ms(loop, "kernel.transform."), "ms"),
        "private.charges_per_request": (_ratio(delta["charges"], n), "count"),
        "telemetry.overhead_frac": (overhead, "ratio"),
        "telemetry.span_coverage": (layers.span_coverage(loop), "ratio"),
    })
    for layer in layers.LAYERS:
        metrics[f"layers.{layer}_ms"] = (layers.per_request_ms(loop["self_by_layer"][layer], n), "ms")

    problems = (
        harness.phase_problems(untraced)
        + harness.phase_problems(phase)
        + harness.check_digests(untraced, phase)
        + untraced.failures
        + phase.failures
    )
    attempted = untraced.attempted + phase.attempted
    failed = len(untraced.failures) + len(phase.failures)
    info = {
        "traced_requests": n,
        "untraced_rps": [round(r, 3) for r in rates["untraced"]],
        "traced_rps": [round(r, 3) for r in rates["traced"]],
        "common_answers_compared": len(set(untraced.released) & set(phase.released)),
        "spans": len(spans),
    }
    print(f"# {workload.name}: {json.dumps(info)}")
    by_name = sorted(loop["self_by_name"].items(), key=lambda kv: -kv[1])
    for name, seconds in by_name[:12]:
        print(f"# self time per request  {name:40s} {layers.per_request_ms(seconds, n):10.4f} ms")
    return metrics, problems, attempted, failed


def describe() -> dict:
    from workloads import UNCOVERED_PLANS, WORKLOADS

    return {
        "workloads": {name: w.describe() for name, w in WORKLOADS.items()},
        "uncovered_plans": UNCOVERED_PLANS,
    }


def run_all(args, names) -> int:
    """Every workload in turn, each in its own process so that peak memory
    and multiprocessing helpers never carry over from one to the next."""
    results, code = {}, 0
    for name in names:
        command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command + (["--tiny"] if args.tiny else []), capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        results[name] = json.loads(lines[-1]) if lines else None
        code = code or proc.returncode or (results[name] is None)
    print(json.dumps(results))
    return int(code)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="toy sizes, for the self-test")
    parser.add_argument("--describe", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: the library sources are missing: {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.describe:
        print(json.dumps(describe(), indent=2))
        return 0
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        print(f"perfbench: --workload must be one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    try:
        run = traced if args.trace else measure
        metrics, problems, attempted, failed = run(workload, args)
    finally:
        _stop_helpers()
    for name, (value, unit) in metrics.items():
        print(f"{workload.name:16s} {name:40s} {value:16.6f} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
