"""Closed-loop load generator, set-up timing and correctness checks.

A *phase* is one service (sessions plus a ``PlanScheduler``) taken through
its set-up round, a timed closed-loop period and a fixed check round.  The
phase records what every request released (as a hash), each client's count
and busy time, and every check that failed.  Checks are plain functions over
the recorded phase, so they can be re-run on a deliberately damaged copy.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.analysis import per_query_l2_error
from repro.durability import PrivacyJournal
from repro.service import PlanScheduler, QueryRequest, SessionManager, reconcile
from repro.workload import build_workload

#: generous per-session budget: the benchmark measures speed, not refusals
EPSILON_TOTAL = 1e6
#: tolerance of the spent-equals-requested check (the ledger's own tolerance)
SPEND_TOLERANCE = 1e-9


@dataclass
class Service:
    workload: object
    tenants: dict
    manager: SessionManager
    scheduler: PlanScheduler
    journal_dir: Path | None

    @property
    def sessions(self):
        return self.manager.sessions()

    def journal_bytes(self) -> int:
        if self.journal_dir is None:
            return 0
        return sum(p.stat().st_size for p in self.journal_dir.glob("*.journal"))

    def close(self) -> None:
        self.scheduler.shutdown(wait=True)
        for session in self.sessions:
            if session.journal is not None:
                session.journal.close()
        if self.journal_dir is not None:
            shutil.rmtree(self.journal_dir, ignore_errors=True)


def open_service(workload, seed: int, tiny: bool, workdir: Path, tracer=None) -> Service:
    """Generate the data, open the sessions and start the executor."""
    tenants = workload.data(seed, tiny)
    manager = SessionManager()
    journal_dir = Path(tempfile.mkdtemp(prefix="journals-", dir=workdir)) if workload.journaled else None
    for sid, tenant in tenants.items():
        journal = (
            PrivacyJournal(journal_dir / f"{sid}.journal", fsync="commit")
            if journal_dir is not None
            else None
        )
        manager.create_session(
            tenant.tenant,
            tenant.relation,
            epsilon_total=EPSILON_TOTAL,
            seed=tenant.seed,
            session_id=sid,
            journal=journal,
        )
    scheduler = PlanScheduler(
        manager, executor=workload.backend, max_workers=2, tracer=tracer
    )
    return Service(workload, tenants, manager, scheduler, journal_dir)


@dataclass
class Sample:
    """One completed request as the client saw it."""

    key: str
    slug: str
    kind: str
    stage: str
    seconds: float


@dataclass
class Phase:
    """Everything one service's run recorded."""

    name: str
    samples: list = field(default_factory=list)
    #: request key -> hash of the released answer
    released: dict = field(default_factory=dict)
    #: (replay key, referenced fresh key)
    replays: list = field(default_factory=list)
    #: (key, epsilon requested, epsilon spent, cached, kind)
    spends: list = field(default_factory=list)
    #: check-round responses: (request, x_true, x_hat, answers)
    verified: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)
    #: per client and loop: (requests completed, seconds from loop start to last)
    clients: list = field(default_factory=list)
    ledgers: list = field(default_factory=list)
    #: peak memory read in the loop (see ``Workload.rss_after``), else None
    peak_rss_mb: float | None = None
    #: keys of the loop requests that have returned, kept across loops so a
    #: replay may name a release from an earlier loop
    finished: set = field(default_factory=set)
    done: threading.Condition = field(default_factory=threading.Condition, repr=False)
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def loop_samples(self):
        return [s for s in self.samples if s.stage == "loop"]


def answer_hash(response) -> str:
    return hashlib.sha256(np.ascontiguousarray(response.payload).tobytes()).hexdigest()


def execute(service: Service, req, phase: Phase, stage: str, tracer=None):
    """Send one request, time it on the client side and record the outcome."""
    request = QueryRequest(
        req.session_id,
        req.spec.plan,
        req.epsilon,
        plan_params=req.spec.params,
        workload=req.workload,
        workload_params=req.workload_params,
        request_id=req.request_id,
        reuse=req.reuse,
    )
    with phase.lock:
        phase.attempted += 1
    started = time.perf_counter()
    try:
        if tracer is None:
            response = service.scheduler.execute(request)
        else:
            with tracer.span(
                "bench.request", request=req.key, plan=req.spec.slug, kind=req.kind, stage=stage
            ):
                response = service.scheduler.execute(request)
    except Exception as exc:  # a failed request is counted, never fatal
        with phase.lock:
            phase.failures.append(f"{req.key}: {type(exc).__name__}: {exc}")
        return None
    seconds = time.perf_counter() - started
    digest = answer_hash(response)
    with phase.lock:
        phase.samples.append(Sample(req.key, req.spec.slug, req.kind, stage, seconds))
        phase.released[req.key] = digest
        phase.spends.append(
            (req.key, req.epsilon, float(response.epsilon_spent), bool(response.cached), req.kind)
        )
        if req.ref is not None:
            phase.replays.append((req.key, req.ref))
    return response


def _split_by_session(reqs, clients: int) -> list[list]:
    sids = sorted({r.session_id for r in reqs})
    buckets = [[] for _ in range(min(clients, len(sids)))]
    for req in reqs:
        buckets[sids.index(req.session_id) % len(buckets)].append(req)
    return buckets


def _threads(targets) -> None:
    threads = [threading.Thread(target=t) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def run_fixed(service: Service, reqs, phase: Phase, stage: str, tracer=None) -> list:
    """Run a fixed request list, one client thread per group of sessions."""
    results = []

    def client(bucket):
        for req in bucket:
            response = execute(service, req, phase, stage, tracer)
            results.append((req, response))

    _threads([lambda b=b: client(b) for b in _split_by_session(reqs, service.workload.clients)])
    return results


def run_loop(
    service: Service, stream, seconds: float, phase: Phase, tracer=None, rss_after=None
) -> float:
    """The timed closed loop: each client sends its next request when the
    previous one returned, until ``seconds`` have passed.  Returns the
    throughput: requests completed per busy second, summed over clients.
    ``rss_after`` reads the peak memory once that many requests completed."""
    finished, done = phase.finished, phase.done
    clients = []
    completed_all = [0]
    start = time.perf_counter()
    deadline = start + seconds

    def client(c):
        completed, last = 0, start
        while True:
            req = stream.take(c, time.perf_counter() >= deadline)
            if req is None:
                break
            if req.ref is not None:
                # Replays only name answers already released (think time,
                # outside the request's latency).
                with done:
                    done.wait_for(lambda: req.ref in finished)
            if execute(service, req, phase, "loop", tracer) is not None:
                completed += 1
                last = time.perf_counter()
                with phase.lock:
                    completed_all[0] += 1
                    read_rss = completed_all[0] == rss_after
                if read_rss:
                    phase.peak_rss_mb = peak_rss_mb()
            with done:
                finished.add(req.key)
                done.notify_all()
        with phase.lock:
            clients.append((completed, last - start))

    _threads([lambda c=c: client(c) for c in range(service.workload.clients)])
    phase.clients.extend(clients)
    return sum(n / busy for n, busy in clients if n and busy > 0)


def setup(workload, seed: int, tiny: bool, workdir: Path, traffic, phase: Phase, tracer=None):
    """Time one set-up: data, sessions, executor start and the cold round."""
    started = time.perf_counter()
    service = open_service(workload, seed, tiny, workdir, tracer)
    run_fixed(service, traffic.warm, phase, "warm", tracer)
    return service, time.perf_counter() - started


def verify(service: Service, traffic, phase: Phase, tracer=None) -> None:
    """The check round: keep each response for the accuracy and answer
    checks, then reconcile every session's ledger."""
    for req, response in run_fixed(service, traffic.verify, phase, "verify", tracer):
        if response is not None:
            x_true = service.tenants[req.session_id].x
            phase.verified.append((req, x_true, response.x_hat, response.answers))
    phase.ledgers = [reconcile(session) for session in service.sessions]


# ----------------------------------------------------------------------
# Checks (each returns a list of problems; empty means it passed).
# ----------------------------------------------------------------------
def check_ledgers(phase: Phase) -> list[str]:
    return [
        f"{phase.name}: ledger of {r['session_id']} does not reconcile "
        f"(difference {r['difference']:.3g}, {r['history_claimed']}/{r['history_records']} records claimed)"
        for r in phase.ledgers
        if not r["exact"]
    ]


def check_spends(phase: Phase) -> list[str]:
    problems = []
    for key, requested, spent, cached, kind in phase.spends:
        if kind == "fresh":
            ok = not cached and math.isclose(spent, requested, rel_tol=SPEND_TOLERANCE)
        else:
            ok = cached and spent == 0.0
        if not ok:
            problems.append(
                f"{phase.name}: {kind} request {key} spent {spent!r} of {requested!r} (cached={cached})"
            )
    return problems


def check_replays(phase: Phase) -> list[str]:
    return [
        f"{phase.name}: replay {key} differs from the answer {ref} released"
        for key, ref in phase.replays
        if phase.released.get(key) != phase.released.get(ref)
    ]


def _matrices(phase: Phase) -> dict:
    """Every workload matrix of the check round, keyed by (name, params)."""
    matrices = {}
    for req, *_ in phase.verified:
        key = (req.workload, repr(req.workload_params))
        if key not in matrices:
            matrices[key] = build_workload(req.workload, req.workload_params)
    return matrices


def check_answers(phase: Phase) -> list[str]:
    """Each checked response's workload answers are W applied to its estimate."""
    matrices = _matrices(phase)
    problems = []
    for req, _x_true, x_hat, answers in phase.verified:
        expected = matrices[(req.workload, repr(req.workload_params))].matvec(x_hat)
        if answers is None or not np.allclose(answers, expected, rtol=1e-9, atol=1e-9):
            problems.append(f"{phase.name}: answers of {req.key} are not W x_hat")
    return problems


def check_digests(untraced: Phase, traced: Phase) -> list[str]:
    """Tracing must not change a single released answer."""
    common = set(untraced.released) & set(traced.released)
    if not common:
        return ["no request completed in both the untraced and the traced phase"]
    differing = sorted(k for k in common if untraced.released[k] != traced.released[k])
    if differing:
        return [f"traced answers differ from untraced ones for {len(differing)} requests, e.g. {differing[0]}"]
    return []


def phase_problems(phase: Phase) -> list[str]:
    return check_ledgers(phase) + check_spends(phase) + check_replays(phase) + check_answers(phase)


# ----------------------------------------------------------------------
# Measurements.
# ----------------------------------------------------------------------
def workload_error(phase: Phase) -> float:
    """Geometric mean of the paper's scaled per-query L2 error of every
    check-round estimate on every workload of the check round (a fixed,
    seed-determined set of budget-spending requests)."""
    matrices = _matrices(phase).values()
    logs = [
        math.log(per_query_l2_error(matrix, x_true, x_hat))
        for _req, x_true, x_hat, _answers in phase.verified
        for matrix in matrices
    ]
    return math.exp(math.fsum(logs) / len(logs)) if logs else math.nan


def percentile_ms(values, q: float) -> float:
    return float(np.percentile(np.asarray(values) * 1e3, q)) if len(values) else 0.0


def _descendants(root: int) -> list[int]:
    parents = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as f:
                    stat = f.read()
                parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
            except (OSError, ValueError, IndexError):
                continue
    found, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        children = [c for c, p in parents.items() if p == pid]
        found.extend(children)
        frontier.extend(children)
    return found


def _peak_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live child processes
    (executor workers, the fork server, the shared-artifact manager)."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + sum(_peak_kb(pid) for pid in _descendants(os.getpid()))) / 1024.0

