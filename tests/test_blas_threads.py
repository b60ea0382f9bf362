"""Plan compute runs on one BLAS thread on every backend.

OpenBLAS sums in a different order at different thread counts, so the
service's byte-identity across the inline, thread and process backends holds
only if every backend computes at the same count.  These tests cover the
reference-counted :func:`~repro.service.single_blas_thread` scope, the
process workers' lifetime pin, and byte-identity at the census scale where
threaded BLAS calls actually happen.  CI also runs this module with
``OPENBLAS_NUM_THREADS=4`` so the default pool is multi-threaded on any
runner.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.dataset import synthetic_cps
from repro.plans.registry import make_plan
from repro.private import protect
from repro.service import (
    ArtifactCache,
    PlanScheduler,
    ProcessExecutor,
    QueryRequest,
    SessionManager,
    blas_thread_count,
    reconcile,
    single_blas_thread,
)
from repro.service import executors
from repro.workload.builders import build_workload

pytestmark = pytest.mark.skipif(
    blas_thread_count() is None, reason="no OpenBLAS thread control in this process"
)


@pytest.fixture
def two_threads():
    """Every loaded OpenBLAS at 2 threads, so a restore is observable."""
    controls = executors._BLAS_SCOPE.controls()
    saved = [get() for _, get in controls]
    for set_threads, _ in controls:
        set_threads(2)
    yield
    for (set_threads, _), count in zip(controls, saved):
        set_threads(count)


class TestSingleBlasThreadScope:
    def test_nested_scopes_restore_on_last_exit(self, two_threads):
        assert blas_thread_count() == 2
        with single_blas_thread():
            assert blas_thread_count() == 1
            with single_blas_thread():
                assert blas_thread_count() == 1
            assert blas_thread_count() == 1
        assert blas_thread_count() == 2

    def test_restores_after_an_exception(self, two_threads):
        with pytest.raises(ZeroDivisionError):
            with single_blas_thread():
                assert blas_thread_count() == 1
                1 / 0
        assert blas_thread_count() == 2
        # The depth is back at zero: a later scope still saves and restores.
        with single_blas_thread():
            assert blas_thread_count() == 1
        assert blas_thread_count() == 2

    def test_overlapping_threads_hold_one_thread_until_both_exit(self, two_threads):
        first_in, second_in, first_out, second_may_exit = (threading.Event() for _ in range(4))
        seen = {}

        def first():
            with single_blas_thread():
                first_in.set()
                second_in.wait(10)
            first_out.set()

        def second():
            first_in.wait(10)
            with single_blas_thread():
                second_in.set()
                first_out.wait(10)
                seen["after_first_exit"] = blas_thread_count()
                second_may_exit.wait(10)

        threads = [threading.Thread(target=first), threading.Thread(target=second)]
        for t in threads:
            t.start()
        first_out.wait(10)
        # The first scope has left; the second still holds the count at 1.
        assert blas_thread_count() == 1
        second_may_exit.set()
        for t in threads:
            t.join(10)
            assert not t.is_alive()
        assert seen["after_first_exit"] == 1
        assert blas_thread_count() == 2

    def test_no_op_without_openblas(self, monkeypatch):
        monkeypatch.setattr(executors, "_find_openblas_controls", lambda: [])
        scope = executors._SingleBlasThread()
        before = blas_thread_count()
        with scope:
            with scope:
                assert blas_thread_count() == before
        assert scope.controls() == []


# ----------------------------------------------------------------------
# Backends at census scale: 28,000 cells, Kronecker and PrivBayes solves.
# ----------------------------------------------------------------------
CENSUS = synthetic_cps(num_records=49_436, income_bins=100)
DOMAIN = [int(d) for d in CENSUS.schema.domain]
WORKLOAD = ("two_way_marginals", {"domain": DOMAIN})
PLANS = [
    ("HB-Striped_kron", {"domain": DOMAIN, "stripe_axis": 0}),
    ("PrivBayesLS", {"domain": DOMAIN, "seed": 0}),
]


@pytest.fixture(scope="module")
def process_executor():
    executor = ProcessExecutor(max_workers=2)
    yield executor
    executor.shutdown()


def _requests(session_id):
    return [
        QueryRequest(
            session_id,
            plan=plan,
            epsilon=0.5,
            plan_params=params,
            workload=WORKLOAD[0],
            workload_params=WORKLOAD[1],
            request_id=f"r-{plan}",
        )
        for plan, params in PLANS
    ]


def _serve(executor):
    manager = SessionManager()
    scheduler = PlanScheduler(manager, executor=executor)
    session = manager.create_session(
        "bureau", CENSUS, 10.0, seed=11, session_id="census-s1"
    )
    responses = [scheduler.execute(r) for r in _requests(session.session_id)]
    if not isinstance(executor, ProcessExecutor):
        scheduler.shutdown()
    return responses, session


def test_process_worker_reports_one_thread(process_executor):
    counts = {
        process_executor._pool.submit(blas_thread_count).result(timeout=60)
        for _ in range(4)
    }
    assert counts == {1}


def test_census_answers_byte_identical_across_backends(process_executor):
    base, base_session = _serve("inline")
    for executor in ("thread", process_executor):
        responses, session = _serve(executor)
        for expected, got in zip(base, responses):
            assert np.array_equal(got.x_hat, expected.x_hat), got.plan
            assert np.array_equal(got.payload, expected.payload), got.plan
            assert got.epsilon_spent == expected.epsilon_spent
        assert session.budget_consumed() == base_session.budget_consumed()
        assert reconcile(session) == reconcile(base_session)
    assert reconcile(base_session)["exact"]


def test_stand_alone_run_in_scope_equals_service_answer():
    responses, _ = _serve("inline")
    workload = build_workload(*WORKLOAD)
    for response, (plan, params) in zip(responses, PLANS):
        source = protect(CENSUS, 10.0, seed=response.seed).vectorize()
        with single_blas_thread():
            alone = make_plan(plan, params).run(source, 0.5, gram_cache=ArtifactCache())
            answers = alone.answer(workload)
        assert np.array_equal(alone.x_hat, response.x_hat), plan
        assert np.array_equal(answers, response.answers), plan

