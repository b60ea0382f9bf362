"""The scheduler's ArtifactCache holds each data-independent strategy once.

Select → measure → least-squares plans fetch their selected strategy under
``("strategy", plan name, representation, n, *selection_params())``; these
tests pin the key's granularity, that data-dependent plans stay out of it,
and that a cached strategy changes no released answer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataset import Attribute, Relation, Schema
from repro.matrix import Identity, Prefix
from repro.plans import (
    GreedyHPlan,
    H2Plan,
    HbPlan,
    HdmmPlan,
    PriveletPlan,
    QuadtreePlan,
    make_plan,
)
from repro.private import protect
from repro.service import ArtifactCache, PlanScheduler, QueryRequest, SessionManager

N = 64


class CountingCache(ArtifactCache):
    """ArtifactCache that counts strategy builder invocations."""

    def __init__(self):
        super().__init__()
        self.strategy_builds = 0

    def get_or_build(self, key, builder):
        def counting():
            if key[0] == "strategy":
                self.strategy_builds += 1
            return builder()

        return super().get_or_build(key, counting)

    def strategy_keys(self) -> list[tuple]:
        return [key for key in self._entries if key[0] == "strategy"]


def _relation(n: int = N) -> Relation:
    values = np.random.default_rng(7).integers(0, 40, size=n).astype(np.float64)
    return Relation.from_histogram(Schema.build([Attribute("v", n)]), values)


def _source(n: int = N, seed: int = 0):
    return protect(_relation(n), 100.0, seed=seed).vectorize()


_INTERVALS = [(0, 9), (3, 40), (10, 63), (5, 5)]

#: registry name and params of every plan that caches its strategy
CACHED = [
    ("Privelet", {}),
    ("Hierarchical (H2)", {}),
    ("Hierarchical Opt (HB)", {}),
    ("Greedy-H", {"workload_intervals": _INTERVALS}),
    ("Quadtree", {"shape": (8, 8)}),
]


class TestStrategyKey:
    @pytest.mark.parametrize("name, params", CACHED)
    def test_repeat_requests_share_one_object(self, name, params):
        manager = SessionManager()
        cache = CountingCache()
        scheduler = PlanScheduler(manager, artifact_cache=cache)
        session = manager.create_session("t", _relation(), 10.0, seed=1)
        request = QueryRequest(
            session.session_id, plan=name, epsilon=0.5, plan_params=params, reuse=False
        )
        scheduler.execute(request)
        (key,) = cache.strategy_keys()
        first = cache._entries[key]
        scheduler.execute(request)
        assert cache.strategy_builds == 1
        assert cache.strategy_keys() == [key]
        assert cache._entries[key] is first

    def test_equal_params_hit_across_plan_instances(self):
        cache = CountingCache()
        GreedyHPlan(workload_intervals=_INTERVALS).run(_source(), 0.5, gram_cache=cache)
        as_lists = [list(iv) for iv in _INTERVALS]
        GreedyHPlan(workload_intervals=as_lists).run(_source(), 0.5, gram_cache=cache)
        assert cache.strategy_builds == 1

    def test_distinct_inputs_get_distinct_entries(self):
        cache = CountingCache()
        plans = [
            (QuadtreePlan((16, 64)), 1024),
            (QuadtreePlan((32, 32)), 1024),
            (GreedyHPlan(workload_intervals=_INTERVALS), N),
            (GreedyHPlan(workload_intervals=_INTERVALS[:2]), N),
            (GreedyHPlan(), N),
            (H2Plan(), N),
            (H2Plan(representation="dense"), N),
            (HbPlan(), N),
            (PriveletPlan(), N),
            (H2Plan(), 2 * N),
            (HdmmPlan(Prefix(N)), N),
            (HdmmPlan(Identity(N)), N),
        ]
        for plan, n in plans:
            plan.run(_source(n), 0.5, gram_cache=cache)
        assert cache.strategy_builds == len(plans)
        assert len(cache.strategy_keys()) == len(plans)

    def test_mismatched_shape_still_raises_and_caches_nothing(self):
        cache = CountingCache()
        with pytest.raises(ValueError, match="shape"):
            QuadtreePlan((4, 4)).run(_source(), 0.5, gram_cache=cache)
        assert cache.strategy_keys() == []

    @pytest.mark.parametrize(
        "name, params",
        [
            ("UniformGrid", {"shape": (8, 8)}),
            ("AdaptiveGrid", {"shape": (8, 8)}),
            ("DAWA", {"workload_intervals": _INTERVALS}),
        ],
    )
    def test_data_dependent_plans_are_never_cached(self, name, params):
        cache = CountingCache()
        for seed in range(2):
            make_plan(name, params).run(_source(seed=seed), 1.0, gram_cache=cache)
        assert cache.strategy_builds == 0
        assert cache.strategy_keys() == []


class TestCachedStrategyAnswers:
    @pytest.mark.parametrize("name, params", CACHED)
    def test_service_matches_stand_alone_run(self, name, params):
        manager = SessionManager()
        scheduler = PlanScheduler(manager)
        session = manager.create_session("t", _relation(), 10.0, seed=3)
        responses = [
            scheduler.execute(
                QueryRequest(
                    session.session_id,
                    plan=name,
                    epsilon=0.5,
                    plan_params=params,
                    request_id=f"r{i}",
                    reuse=False,
                )
            )
            for i in range(2)
        ]
        # The second response ran on the cached strategy; a stand-alone run
        # with the same seed and a cold cache of its own builds everything.
        for response in responses:
            source = protect(_relation(), 10.0, seed=response.seed).vectorize()
            alone = make_plan(name, params).run(source, 0.5, gram_cache=ArtifactCache())
            assert np.array_equal(response.x_hat, alone.x_hat)

    def test_concurrent_thread_requests_on_one_strategy(self):
        def run(executor: str):
            manager = SessionManager()
            scheduler = PlanScheduler(manager, executor=executor, max_workers=4)
            session = manager.create_session("t", _relation(), 50.0, seed=5)
            requests = [
                QueryRequest(
                    session.session_id,
                    plan=name,
                    epsilon=0.1,
                    plan_params=params,
                    request_id=f"r{i}",
                    reuse=False,
                )
                for i in range(6)
                for name, params in CACHED[1:4]
            ]
            responses = scheduler.execute_batch(requests, max_workers=4)
            return responses, scheduler.artifact_cache

        serial, _ = run("inline")
        threaded, cache = run("thread")
        for a, b in zip(serial, threaded):
            assert np.array_equal(a.x_hat, b.x_hat)
        assert len([key for key in cache._entries if key[0] == "strategy"]) == 3
        # A cached strategy carries no per-request state: its lazily memoised
        # strategy key and sensitivity, filled in by concurrent requests, equal
        # those of a fresh build.
        for name, params in CACHED[1:4]:
            plan = make_plan(name, params)
            key = ("strategy", plan.name, plan.representation, N, *plan.selection_params())
            fresh = plan._select(_source())
            assert cache._entries[key].strategy_key() == fresh.strategy_key()
            assert cache._entries[key].sensitivity() == fresh.sensitivity()
