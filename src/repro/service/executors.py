"""Executor backends: where the service actually runs its work.

The scheduler separates two concerns that PR-1 fused into one
``ThreadPoolExecutor``:

* **request driving** — everything privacy-critical about a request
  (admission, the session lock, cache probes, budget accounting, journal
  commits).  Driving always happens in the scheduler's own process, because
  that is where the sessions' kernels and write-ahead journals live;
  backends only choose *how many driver threads* run concurrently
  (:meth:`ExecutorBackend.submit`).
* **plan compute** — the numeric work of running a plan against the data
  vector.  :meth:`ExecutorBackend.run_plan` places it: in the driving thread
  (inline/thread backends) or in a worker process (:class:`ProcessExecutor`).

The process backend ships a :class:`PlanJob` — plan name, parameters, the
session's accountant configuration, its *current root spend* and the derived
per-request noise seed — to a worker that rebuilds a throwaway kernel around
the same table, replays the prior spend, runs the plan and returns the
root-level charges plus measurement records it produced.  The parent then
**adopts** the outcome under the session lock: every charge goes through the
real tracker's acceptance check (and hence the write-ahead journal listener),
every measurement record lands in the real kernel history, so the session's
ledger is byte-for-byte what local execution would have produced.  Answers
are byte-identical by construction — all noise is drawn from the derived
request seed, which is the same in any process (see
:func:`~repro.service.scheduler.derive_request_seed`).

Picklability constraints of the process backend: the table, plan parameters
and workload parameters must pickle (they are plain
dataclasses/ndarrays/primitives throughout this repo); plan *artifacts* that
cannot pickle — notably scipy's SuperLU sparse factorisations inside
normal-equations artifacts — simply stay in each worker's process-local
cache and are skipped by the shared cross-process tier.

Plan compute runs on one BLAS thread on every backend
(:func:`single_blas_thread`): worker processes are pinned for their
lifetime, and the driver scopes its local plan runs and answer products.
OpenBLAS sums in a different order at different thread counts, so this is
what keeps answers byte-identical across backends and independent of the
host's core count; it also stops idle-spinning BLAS threads in one process
from taking the cores of the others.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ..telemetry.context import TraceContext
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.spans import Tracer, activate

__all__ = [
    "ExecutorBackend",
    "InlineExecutor",
    "PlanJob",
    "PlanJobOutcome",
    "ProcessExecutor",
    "ThreadExecutor",
    "adopt_outcome",
    "blas_thread_count",
    "execute_plan_job",
    "make_executor",
    "single_blas_thread",
]


# ----------------------------------------------------------------------
# BLAS thread policy: all plan compute runs on one OpenBLAS thread.
# ----------------------------------------------------------------------
#: (setter, getter) symbol pairs, one per OpenBLAS build: numpy's 64-bit
#: interface wheel build, scipy's wheel build, a system OpenBLAS.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _find_openblas_controls() -> list[tuple]:
    """``(set, get)`` thread-count functions of every loaded OpenBLAS.

    numpy and scipy each load their own copy, and scipy's only once
    ``scipy.linalg`` is imported.  Returns an empty list where no OpenBLAS
    is loaded or the process map is unreadable (another BLAS, another OS).
    """
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return []
    paths = sorted(
        {
            f[5].strip()
            for f in fields
            if len(f) == 6 and "openblas" in os.path.basename(f[5]).lower()
        }
    )
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                controls.append((setter, getter))
                break
    return controls


class _SingleBlasThread:
    """Reference-counted scope holding every loaded OpenBLAS at one thread.

    The thread count is process-wide, so overlapping scopes (concurrent
    thread-backend plan runs) share one count: the first entrant saves the
    current counts and sets 1, the last one out restores them, also when an
    exception leaves the scope.  A no-op where no OpenBLAS is found.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved: list[int] = []
        self._controls: list[tuple] | None = None

    def controls(self) -> list[tuple]:
        with self._lock:
            if self._controls is None:
                self._controls = _find_openblas_controls()
            return self._controls

    def __enter__(self):
        controls = self.controls()
        with self._lock:
            if self._depth == 0:
                self._saved = [get() for _, get in controls]
                for set_threads, _ in controls:
                    set_threads(1)
            self._depth += 1
        return self

    def __exit__(self, *exc_info) -> None:
        controls = self.controls()
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for (set_threads, _), count in zip(controls, self._saved):
                    set_threads(count)


_BLAS_SCOPE = _SingleBlasThread()


def single_blas_thread() -> _SingleBlasThread:
    """Context manager: run the enclosed compute on one BLAS thread.

    Wrap a stand-alone ``plan.run`` in it to reproduce the service's answers
    bit for bit.  Scopes nest and may overlap across threads.
    """
    return _BLAS_SCOPE


def blas_thread_count() -> int | None:
    """The largest thread count among the loaded OpenBLAS libraries, or
    ``None`` when none is found."""
    counts = [get() for _, get in _BLAS_SCOPE.controls()]
    return max(counts) if counts else None


class ExecutorBackend:
    """Protocol all backends implement: ``submit``/``map``/``run_plan``/``shutdown``."""

    #: registry name ("inline", "thread", "process").
    name = "abstract"
    #: True when :meth:`run_plan` executes plans outside the session's process
    #: (the scheduler then ships a :class:`PlanJob` and adopts the outcome).
    remote_plans = False

    def submit(self, fn, *args) -> Future:
        """Schedule one request-driving call; returns its future."""
        raise NotImplementedError

    def map(self, fn, items) -> list[Future]:
        """Fan a sequence of argument tuples out over the driver pool."""
        return [self.submit(fn, *item) for item in items]

    def run_plan(self, invoke, job: "PlanJob | None" = None):
        """Place one plan execution; default: run ``invoke()`` locally."""
        return invoke()

    def shutdown(self, wait: bool = True) -> None:
        """Release pools/processes; the backend is unusable afterwards."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class InlineExecutor(ExecutorBackend):
    """Sequential driving on the calling thread — zero concurrency, zero
    pool overhead; the deterministic baseline every other backend must match
    byte-for-byte."""

    name = "inline"

    def submit(self, fn, *args) -> Future:
        future = Future()
        try:
            result = fn(*args)
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:
            # Including WorkerDeath: a real pool's future captures it too, and
            # the batch collector's orphan accounting depends on seeing it.
            future.set_exception(exc)
        else:
            future.set_result(result)
        return future


class ThreadExecutor(ExecutorBackend):
    """A persistent ``ThreadPoolExecutor`` for request driving.

    Plans still run in the driving thread (same process, same kernels), so
    this is PR-1's concurrency model with the per-batch pool churn removed:
    one pool for the scheduler's lifetime, lazily created on first use.
    """

    name = "thread"

    def __init__(self, max_workers: int = 4):
        self.max_workers = max(int(max_workers), 1)
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()

    def _ensure(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers, thread_name_prefix="svc-driver"
                )
            return self._pool

    def submit(self, fn, *args) -> Future:
        return self._ensure().submit(fn, *args)

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)


# ----------------------------------------------------------------------
# Process backend: picklable job spec, worker entry point, adoption.
# ----------------------------------------------------------------------
@dataclass
class PlanJob:
    """Everything a worker process needs to run one plan deterministically.

    ``prior_primary``/``prior_delta`` replay the session's current root-level
    spend into the throwaway kernel, so the worker's budget-acceptance
    decisions mirror the live session's exactly (the session lock is held for
    the whole round trip, so the baseline cannot move underneath it).

    ``trace`` is the driver's :class:`~repro.telemetry.TraceContext` (or None
    when tracing is off): when present the worker activates a private
    recording tracer, so the spans the plan emits come home in the outcome
    and get adopted into the live trace under the originating span.
    """

    table: object
    accountant: str
    epsilon_total: float
    delta: float
    seed: int
    prior_primary: float
    prior_delta: float
    plan: str
    plan_params: dict
    epsilon: float
    deadline_remaining: float | None = None
    trace: TraceContext | None = None


@dataclass
class PlanJobOutcome:
    """What came back: the estimate plus the accounting to adopt.

    ``charges`` are the root-level costs the worker's tracker accepted, in
    order; ``records`` the measurement history rows.  ``spans`` are the
    finished spans the worker's private tracer recorded (empty when the job
    carried no trace context) and ``metrics`` the worker registry's
    :meth:`~repro.telemetry.MetricsRegistry.export_state` delta — both
    travel home on success *and* failure, so a failed plan's trace and cache
    counters are never lost.  On failure ``x_hat`` is None and ``error``
    carries the pickled original exception (when it round-trips) so the
    parent re-raises the concrete type callers match on.
    """

    x_hat: np.ndarray | None
    info: dict
    charges: list = field(default_factory=list)
    records: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    metrics: dict | None = None
    error: bytes | None = None
    error_type: str = ""
    error_message: str = ""

    def raise_error(self) -> None:
        if self.error is not None:
            raise pickle.loads(self.error)
        raise RuntimeError(
            f"remote plan execution failed: {self.error_type}: {self.error_message}"
        )


def _portable_exception(exc: BaseException) -> bytes | None:
    """Pickle ``exc`` iff it survives a round trip (many exception classes
    with multi-argument constructors don't by default)."""
    try:
        payload = pickle.dumps(exc)
        pickle.loads(payload)
        return payload
    except Exception:
        return None


#: process-local artifact cache; built once per worker by the initializer
#: (or on first use when the pool was created without one).
_WORKER_CACHE = None


def _init_plan_worker(store_state=None) -> None:
    global _WORKER_CACHE
    from .artifact_cache import ArtifactCache, SharedArtifactStore

    shared = SharedArtifactStore.from_state(store_state) if store_state else None
    _WORKER_CACHE = ArtifactCache(shared=shared)
    # Entered and never left: the worker computes on one BLAS thread for
    # its whole lifetime.
    _BLAS_SCOPE.__enter__()


def execute_plan_job(job: PlanJob) -> PlanJobOutcome:
    """Worker-process entry point: run one plan on a throwaway kernel.

    The kernel is seeded with the job's derived request seed, pre-charged
    with the session's prior spend, and instrumented so every accepted
    root-level charge and every measurement record is captured for adoption.
    Failures (budget exhaustion, deadline expiry mid-plan, plan bugs) are
    returned, not raised: the partial charges they left behind must still
    reach the parent's ledger.

    Observability rides along the same way: the job runs against a fresh
    worker-side :class:`~repro.telemetry.MetricsRegistry` (bound to the
    worker's artifact cache, so its hit/miss counters are captured too) whose
    full state *is* the per-job delta, and — when the job carries a
    :class:`~repro.telemetry.TraceContext` — under a private recording tracer
    whose ``executor.worker`` root span wraps the plan run exactly like the
    driver-side span local backends emit.
    """
    global _WORKER_CACHE
    if _WORKER_CACHE is None:
        _init_plan_worker()
    from ..accounting import make_accountant
    from ..accounting.base import Cost
    from ..plans.registry import make_plan
    from ..private.kernel import ProtectedKernel
    from ..private.protected import ProtectedDataSource

    registry = MetricsRegistry()
    _WORKER_CACHE.bind_metrics(registry)
    worker_tracer = Tracer() if job.trace is not None else None
    accountant = make_accountant(job.accountant, job.epsilon_total, delta=job.delta)
    kernel = ProtectedKernel(
        job.table, job.epsilon_total, seed=job.seed, accountant=accountant
    )
    if job.prior_primary or job.prior_delta:
        kernel.budget_tracker.apply_restored_charge(
            Cost(job.prior_primary, job.prior_delta)
        )
    charges: list[tuple[float, float]] = []
    kernel.budget_tracker.charge_listener = lambda cost: charges.append(
        (cost.primary, cost.delta)
    )
    records: list = []
    kernel.measurement_listener = records.append
    if job.deadline_remaining is not None:
        now = time.perf_counter()
        kernel.deadline = now + job.deadline_remaining
        kernel.deadline_started = now
    source = ProtectedDataSource(kernel, "root").vectorize()

    def _run():
        plan = make_plan(job.plan, dict(job.plan_params))
        return plan.run(source, job.epsilon, gram_cache=_WORKER_CACHE)

    started = time.perf_counter()
    try:
        if worker_tracer is not None:
            with activate(worker_tracer), worker_tracer.span(
                "executor.worker",
                backend="process",
                pid=os.getpid(),
                plan=job.plan,
                blas_threads=blas_thread_count(),
            ):
                result = _run()
        else:
            result = _run()
    except Exception as exc:
        _observe_worker(registry, job.plan, started, ok=False)
        return PlanJobOutcome(
            x_hat=None,
            info={},
            charges=charges,
            records=records,
            spans=worker_tracer.spans() if worker_tracer is not None else [],
            metrics=registry.export_state(),
            error=_portable_exception(exc),
            error_type=type(exc).__name__,
            error_message=str(exc),
        )
    _observe_worker(registry, job.plan, started, ok=True)
    return PlanJobOutcome(
        x_hat=np.asarray(result.x_hat),
        info=dict(result.info),
        charges=charges,
        records=records,
        spans=worker_tracer.spans() if worker_tracer is not None else [],
        metrics=registry.export_state(),
    )


def _observe_worker(
    registry: MetricsRegistry, plan: str, started: float, ok: bool
) -> None:
    """Worker-side instruments; merged into the live registry on adoption."""
    registry.counter(
        "worker_plan_runs", plan=plan, outcome="ok" if ok else "error"
    ).inc()
    registry.histogram("worker_plan_seconds", plan=plan).observe(
        time.perf_counter() - started
    )


def adopt_outcome(session, outcome: PlanJobOutcome) -> None:
    """Fold a worker's charges and history into the live session's kernel.

    Must run under the session lock.  Charges go through the real tracker's
    root-level :meth:`~repro.private.budget.BudgetTracker.charge` — the
    acceptance check re-runs against the live ledger (the worker already
    passed an identical one) and the write-ahead ``charge_listener`` fires,
    so a journaled session journals adopted charges exactly like local ones.
    Measurement records land via
    :meth:`~repro.private.kernel.ProtectedKernel.adopt_measurement`, which
    also mirrors them to the journal.
    """
    from ..accounting.base import Cost
    from ..private.exceptions import BudgetExceededError
    from ..private.kernel import MeasurementRecord

    tracker = session.kernel.budget_tracker
    for primary, delta in outcome.charges:
        cost = Cost(float(primary), float(delta))
        if not tracker.charge(tracker.root_name, cost):
            # Tolerance-edge divergence between the worker's replayed ledger
            # and the live one: the answer is withheld (nothing released), so
            # rejecting here loses work but never privacy.
            raise BudgetExceededError(cost.primary, tracker.remaining())
    for record in outcome.records:
        if not isinstance(record, MeasurementRecord):  # pragma: no cover - defensive
            record = MeasurementRecord(**dict(record))
        session.kernel.adopt_measurement(record)


class ProcessExecutor(ExecutorBackend):
    """Plan compute in worker processes, driving in a local thread pool.

    ``mp_context`` defaults to ``forkserver`` (clean-state forks that cannot
    inherit another thread's locks — the scheduler's driver threads make a
    plain ``fork`` unsafe), falling back to ``spawn`` where unavailable.
    Workers share one cross-process
    :class:`~repro.service.artifact_cache.SharedArtifactStore` so a Gram
    factorisation built for one shard's request serves every other worker;
    pass ``shared_store`` to join an existing tier (or ``None`` to create
    one owned by this backend).
    """

    name = "process"
    remote_plans = True

    def __init__(
        self,
        max_workers: int = 2,
        driver_threads: int | None = None,
        mp_context: str | None = None,
        shared_store=None,
    ):
        import multiprocessing as mp
        from concurrent.futures import ProcessPoolExecutor

        self.max_workers = max(int(max_workers), 1)
        if mp_context is None:
            methods = mp.get_all_start_methods()
            mp_context = "forkserver" if "forkserver" in methods else "spawn"
        ctx = mp.get_context(mp_context) if isinstance(mp_context, str) else mp_context
        self._owns_store = shared_store is None
        if shared_store is None:
            from .artifact_cache import SharedArtifactStore

            shared_store = SharedArtifactStore()
        self.shared_store = shared_store
        self._pool = ProcessPoolExecutor(
            max_workers=self.max_workers,
            mp_context=ctx,
            initializer=_init_plan_worker,
            initargs=(shared_store.state(),),
        )
        self._drivers = ThreadPoolExecutor(
            max_workers=driver_threads if driver_threads is not None else max(self.max_workers, 4),
            thread_name_prefix="svc-driver",
        )

    def submit(self, fn, *args) -> Future:
        return self._drivers.submit(fn, *args)

    def run_plan(self, invoke, job: PlanJob | None = None):
        if job is None:
            return invoke()
        return self._pool.submit(execute_plan_job, job).result()

    def shutdown(self, wait: bool = True) -> None:
        self._drivers.shutdown(wait=wait)
        self._pool.shutdown(wait=wait)
        if self._owns_store:
            self.shared_store.close()


def make_executor(spec, max_workers: int = 4) -> ExecutorBackend:
    """Resolve ``PlanScheduler(executor=...)``: an instance is used as-is, a
    name constructs the matching backend sized to ``max_workers``."""
    if isinstance(spec, ExecutorBackend):
        return spec
    if spec is None or spec == "thread":
        return ThreadExecutor(max_workers=max_workers)
    if spec == "inline":
        return InlineExecutor()
    if spec == "process":
        return ProcessExecutor(max_workers=max_workers)
    raise ValueError(
        f"unknown executor {spec!r}; expected 'inline', 'thread', 'process' "
        "or an ExecutorBackend instance"
    )
