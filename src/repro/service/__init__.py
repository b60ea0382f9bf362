"""Multi-tenant DP query service on top of the protected kernel (EKTELO Sec. 4).

The paper's architecture separates vetted client-side plans from the kernel
that enforces privacy; this package adds the layer a production deployment
needs between the two — sessions, scheduling, caching and auditing:

* :class:`SessionManager` / :class:`Session` — per-tenant kernels, each with
  its own epsilon ledger, lock and audit trail;
* :class:`QueryRequest` / :class:`QueryResponse` — the data-free wire API;
* :class:`PlanScheduler` — the execution core: a composable request pipeline
  (:mod:`~repro.service.pipeline`) over pluggable executor backends
  (:mod:`~repro.service.executors`: ``inline``/``thread``/``process``), with
  deterministic per-request noise seeding and plan compute on one BLAS
  thread (:func:`single_blas_thread`), which together make answers
  byte-identical on every backend;
* :class:`ShardRouter` / :class:`Shard` — consistent-hash session sharding
  with exact live migration, duck-type interchangeable with
  :class:`SessionManager`;
* :class:`MeasurementCache` — budget-free replay of already-released answers
  (post-processing), LRU-bounded, indexed against the kernel's query history;
* :class:`ArtifactCache` — LRU cache of data-independent constructions
  (workload matrices, strategy-keyed Gram factorisations), optionally backed
  by a cross-process :class:`SharedArtifactStore` tier;
* :mod:`~repro.service.export` — structured audit export and ledger
  reconciliation built on :mod:`repro.private.audit`, plus
  :func:`telemetry_report` for the scheduler's operational snapshot.

Observability: construct the scheduler with a
:class:`~repro.telemetry.Tracer` to get one hierarchical trace per request
(``QueryResponse.trace_id``) spanning plan stages, kernel measurements and
solver calls — on *every* backend: process workers record their spans on a
private tracer and the driver adopts them into the live trace, so the span
tree is structurally identical whether a plan ran inline or in a worker
process.  Metrics (latency/queue-wait histograms, outcome and cache
counters, the per-tenant privacy-spend odometer) are always collected on
``scheduler.metrics``, with worker-side deltas merged in.  Attach a
:class:`~repro.telemetry.FlightRecorder` for postmortem bundles on failures
and an :class:`~repro.telemetry.SloEngine` (or call :func:`slo_report`) for
multi-window burn-rate alerting.  See :mod:`repro.telemetry`.

Typical usage::

    from repro.dataset import small_census
    from repro.service import PlanScheduler, QueryRequest, SessionManager

    manager = SessionManager()
    session = manager.create_session("acme", small_census(), epsilon_total=1.0)
    scheduler = PlanScheduler(manager)
    response = scheduler.execute(
        QueryRequest(session.session_id, plan="Identity", epsilon=0.1,
                     workload="prefix", workload_params={"n": 50})
    )
"""

from .api import QueryRequest, QueryResponse, RequestFailure
from .artifact_cache import ArtifactCache, SharedArtifactStore
from .executors import (
    ExecutorBackend,
    InlineExecutor,
    PlanJob,
    PlanJobOutcome,
    ProcessExecutor,
    ThreadExecutor,
    blas_thread_count,
    make_executor,
    single_blas_thread,
)
from .export import (
    export_json,
    reconcile,
    service_report,
    session_report,
    slo_report,
    telemetry_report,
)
from .measurement_cache import CachedAnswer, MeasurementCache
from .pipeline import RequestContext, RequestPipeline
from .robustness import (
    AdmissionController,
    AdmissionError,
    CircuitBreaker,
    RetryPolicy,
    SessionClosedError,
)
from .scheduler import PlanScheduler, derive_request_seed
from .session import Session, SessionEvent, SessionManager
from .sharding import Shard, ShardRouter

__all__ = [
    "QueryRequest",
    "QueryResponse",
    "RequestFailure",
    "Session",
    "SessionEvent",
    "SessionManager",
    "Shard",
    "ShardRouter",
    "PlanScheduler",
    "derive_request_seed",
    "ExecutorBackend",
    "InlineExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "PlanJob",
    "PlanJobOutcome",
    "make_executor",
    "single_blas_thread",
    "blas_thread_count",
    "RequestContext",
    "RequestPipeline",
    "MeasurementCache",
    "CachedAnswer",
    "ArtifactCache",
    "SharedArtifactStore",
    "AdmissionController",
    "AdmissionError",
    "CircuitBreaker",
    "RetryPolicy",
    "SessionClosedError",
    "session_report",
    "service_report",
    "reconcile",
    "export_json",
    "telemetry_report",
    "slo_report",
]
