"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

1. Runs every workload at toy sizes with ``--trace 0`` and ``--trace 1`` and
   checks that each run is correct and prints exactly the metrics
   ``BENCHMARK.json`` declares, each with its unit, in the human-readable
   lines and in the final JSON line.
2. Runs tenant_mix on a seed whose first measured request is a fresh one on
   the session the set-up round warmed, so a fresh request that wrongly hit
   a set-up release in the measurement cache would fail the spend check.
3. Damages that recorded run on purpose — a corrupted answer, a replay that no
   longer matches its release, a traced answer that differs from the
   untraced one, a mis-reported spend, an unbalanced ledger — and checks
   that the matching correctness check trips on each.

Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))


def fail(message: str) -> None:
    print(f"selftest FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def check_outputs(spec: dict) -> None:
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, cwd=ROOT, timeout=300,
            )
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                fail(f"{where} exited {proc.returncode}: {proc.stderr[-2000:]}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{where}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                fail(f"{where}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected[trace]))}")
            printed = {tuple(line.split()[1:4:2]) for line in lines[:-1] if line.startswith(workload)}
            missing = {(n, u) for n, u in expected[trace].items()} - printed
            if missing:
                fail(f"{where}: not printed with its unit: {sorted(missing)}")
            print(f"ok   {where}: {len(got)} metrics, {result['attempted']} requests")


def warm_session_seed(workload) -> int:
    """A seed whose first stream request is fresh and goes to the session
    that holds the set-up round's releases."""
    for seed in range(200):
        traffic = workload.traffic(seed, True, workload.data(seed, True))
        first = traffic.new_stream().take(0, False)
        if first.kind == "fresh" and first.session_id == traffic.warm[0].session_id:
            return seed
    fail("no seed sends the first request to the warmed session")


def check_checks() -> None:
    sys.path.insert(0, str(HERE))
    import harness
    from repro.service import SessionEvent, reconcile
    from workloads import WORKLOADS

    workload = WORKLOADS["tenant_mix"]
    seed = warm_session_seed(workload)
    tenants = workload.data(seed, True)
    traffic = workload.traffic(seed, True, tenants)
    with tempfile.TemporaryDirectory(dir=ROOT) as work:
        phase = harness.Phase("selftest")
        service, _ = harness.setup(workload, seed, True, Path(work), traffic, phase)
        harness.run_loop(service, traffic.new_stream(), 0.5, phase)
        harness.verify(service, traffic, phase)
        if harness.phase_problems(phase):
            fail(f"undamaged run has problems: {harness.phase_problems(phase)}")
        print(f"ok   seed {seed}: a fresh first request on the warmed session spends its epsilon")
        if not phase.replays:
            fail("the toy run made no replays to damage")

        def clone(p):
            return harness.Phase(
                p.name, released=dict(p.released), replays=list(p.replays),
                spends=list(p.spends), verified=list(p.verified), ledgers=list(p.ledgers),
            )

        def expect_trip(name, damaged_problems):
            if not damaged_problems:
                fail(f"the {name} check did not trip")
            print(f"ok   {name} check trips: {damaged_problems[0]}")

        damaged = clone(phase)
        req, x_true, x_hat, answers = damaged.verified[0]
        answers = answers.copy()
        answers[0] += 1.0
        damaged.verified[0] = (req, x_true, x_hat, answers)
        expect_trip("answer", harness.check_answers(damaged))

        damaged = clone(phase)
        replay, ref = damaged.replays[0]
        damaged.released[ref] = "0" * 64
        expect_trip("replay", harness.check_replays(damaged))

        damaged = clone(phase)
        damaged.released[replay] = "0" * 64
        expect_trip("traced-digest", harness.check_digests(phase, damaged))

        damaged = clone(phase)
        key, requested, spent, cached, kind = damaged.spends[0]
        damaged.spends[0] = (key, requested, spent * 2 + 1.0, cached, kind)
        expect_trip("spend", harness.check_spends(damaged))

        session = service.sessions[0]
        session.events.append(
            SessionEvent(
                request_id="unbalanced", plan="Identity", workload=None,
                epsilon_requested=0.5, epsilon_spent=0.5, cached=False, seed=None,
                history_start=0, history_end=0,
            )
        )
        damaged = clone(phase)
        damaged.ledgers = [reconcile(s) for s in service.sessions]
        expect_trip("ledger", harness.check_ledgers(damaged))
        service.close()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_checks()
    check_outputs(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
