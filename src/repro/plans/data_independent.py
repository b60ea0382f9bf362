"""Data-independent plans (Fig. 2, plans #1-#6, #10, #11, #13).

All of these share the same three-operator idiom the paper highlights:
*query selection → Vector Laplace → least-squares inference*, differing only
in the selection operator.  Their error does not depend on the input data.
"""

from __future__ import annotations

import numpy as np

from ..matrix import Identity, LinearQueryMatrix, Total, ensure_matrix
from ..operators.selection import (
    greedy_h_select,
    h2_select,
    hb_select,
    hdmm_select,
    quadtree_select,
    uniform_grid_select,
    wavelet_select,
)
from ..private.protected import ProtectedDataSource
from .base import (
    Plan,
    PlanResult,
    infer_least_squares,
    measure_vector,
    plan_stage,
    with_representation,
)


class _SelectMeasureInferPlan(Plan):
    """Shared implementation of the select → measure → least-squares idiom.

    The selected strategy depends only on public inputs (the domain size and
    the plan's parameters), so when the scheduler passes its ``ArtifactCache``
    as ``gram_cache`` the strategy is built once and fetched from there under
    ``("strategy", name, representation, n, *selection_params())``; stand-alone
    runs build it directly.  Subclasses whose ``_select`` reads constructor
    inputs must return them, hashable, from :meth:`selection_params`.

    ``inference_method=None`` (the default) defers to the service policy:
    LSMR stand-alone, shared normal equations when the scheduler provides its
    Gram cache.  Pass an explicit method to pin the solver either way.

    ``noise`` picks the measurement mechanism: the paper's Vector Laplace
    (default) or the Gaussian mechanism (L2-calibrated, charged through the
    kernel's accountant — requires an (ε, δ)/zCDP accountant); ``delta``
    optionally pins the per-call δ target of Gaussian measurements.
    """

    def __init__(
        self,
        representation: str = "implicit",
        inference_method: str | None = None,
        noise: str = "laplace",
        delta: float | None = None,
    ):
        self.representation = representation
        self.inference_method = inference_method
        self.noise = noise
        self.delta = delta

    def _select(self, source: ProtectedDataSource) -> LinearQueryMatrix:
        raise NotImplementedError

    def selection_params(self) -> tuple:
        """Every constructor input ``_select`` reads, as a hashable tuple."""
        return ()

    def run(self, source: ProtectedDataSource, epsilon: float, **kwargs) -> PlanResult:
        before = source.budget_consumed()
        cache = kwargs.get("gram_cache")

        def build() -> LinearQueryMatrix:
            return with_representation(ensure_matrix(self._select(source)), self.representation)

        with plan_stage("select", plan=self.name) as span:
            if cache is None:
                measurements = build()
            else:
                key = ("strategy", self.name, self.representation, source.domain_size)
                measurements = cache.get_or_build(key + self.selection_params(), build)
            span.set_attribute("num_measurements", int(measurements.shape[0]))
        answers = measure_vector(
            source, measurements, epsilon, noise=self.noise, delta=self.delta
        )
        estimate = infer_least_squares(
            measurements, answers, method=self.inference_method, gram_cache=cache
        )
        return self._wrap(
            source,
            before,
            estimate.x_hat,
            num_measurements=measurements.shape[0],
            inference_iterations=estimate.iterations,
        )


class IdentityPlan(Plan):
    """Plan #1 — the Laplace mechanism on every cell (no inference needed)."""

    name = "Identity"
    signature = "SI LM"
    plan_id = 1

    def __init__(
        self,
        representation: str = "implicit",
        noise: str = "laplace",
        delta: float | None = None,
    ):
        self.representation = representation
        self.noise = noise
        self.delta = delta

    def run(self, source: ProtectedDataSource, epsilon: float, **kwargs) -> PlanResult:
        before = source.budget_consumed()
        measurements = with_representation(Identity(source.domain_size), self.representation)
        answers = measure_vector(
            source, measurements, epsilon, noise=self.noise, delta=self.delta
        )
        return self._wrap(source, before, answers, num_measurements=measurements.shape[0])


class UniformPlan(Plan):
    """Plan #6 — measure only the total and assume uniformity."""

    name = "Uniform"
    signature = "ST LM LS"
    plan_id = 6

    def __init__(self, noise: str = "laplace", delta: float | None = None):
        self.noise = noise
        self.delta = delta

    def run(self, source: ProtectedDataSource, epsilon: float, **kwargs) -> PlanResult:
        before = source.budget_consumed()
        n = source.domain_size
        noisy_total = measure_vector(
            source, Total(n), epsilon, noise=self.noise, delta=self.delta
        )[0]
        x_hat = np.full(n, max(noisy_total, 0.0) / n)
        return self._wrap(source, before, x_hat, num_measurements=1)


class PriveletPlan(_SelectMeasureInferPlan):
    """Plan #2 — Haar wavelet measurements (Xiao et al. 2010)."""

    name = "Privelet"
    signature = "SP LM LS"
    plan_id = 2

    def _select(self, source: ProtectedDataSource) -> LinearQueryMatrix:
        return wavelet_select(source.domain_size)


class H2Plan(_SelectMeasureInferPlan):
    """Plan #3 — binary hierarchy of interval counts (Hay et al. 2010)."""

    name = "H2"
    signature = "SH2 LM LS"
    plan_id = 3

    def _select(self, source: ProtectedDataSource) -> LinearQueryMatrix:
        return h2_select(source.domain_size)


class HbPlan(_SelectMeasureInferPlan):
    """Plan #4 — hierarchy with optimised branching factor (Qardaji et al. 2013)."""

    name = "HB"
    signature = "SHB LM LS"
    plan_id = 4

    def _select(self, source: ProtectedDataSource) -> LinearQueryMatrix:
        return hb_select(source.domain_size)


class GreedyHPlan(_SelectMeasureInferPlan):
    """Plan #5 — workload-tuned weighted hierarchy (Li et al. 2014)."""

    name = "Greedy-H"
    signature = "SG LM LS"
    plan_id = 5

    def __init__(
        self,
        workload_intervals: list[tuple[int, int]] | None = None,
        representation: str = "implicit",
        noise: str = "laplace",
        delta: float | None = None,
    ):
        super().__init__(representation=representation, noise=noise, delta=delta)
        self.workload_intervals = workload_intervals

    def selection_params(self) -> tuple:
        if self.workload_intervals is None:
            return (None,)
        return (tuple((int(lo), int(hi)) for lo, hi in self.workload_intervals),)

    def _select(self, source: ProtectedDataSource) -> LinearQueryMatrix:
        return greedy_h_select(source.domain_size, self.workload_intervals)


class QuadtreePlan(_SelectMeasureInferPlan):
    """Plan #10 — quadtree decomposition of a 2-D domain (Cormode et al. 2012)."""

    name = "QuadTree"
    signature = "SQ LM LS"
    plan_id = 10

    def __init__(
        self,
        shape: tuple[int, int],
        representation: str = "implicit",
        noise: str = "laplace",
        delta: float | None = None,
    ):
        super().__init__(representation=representation, noise=noise, delta=delta)
        self.shape = shape

    def selection_params(self) -> tuple:
        return (tuple(int(v) for v in self.shape),)

    def _select(self, source: ProtectedDataSource) -> LinearQueryMatrix:
        rows, cols = self.shape
        if rows * cols != source.domain_size:
            raise ValueError("2-D shape does not match the vector's domain size")
        return quadtree_select(rows, cols)


class UniformGridPlan(Plan):
    """Plan #11 — a single flat grid with data-size-dependent granularity."""

    name = "UniformGrid"
    signature = "SU LM LS"
    plan_id = 11

    def __init__(self, shape: tuple[int, int], representation: str = "implicit", c: float = 10.0):
        self.shape = shape
        self.representation = representation
        self.c = c

    def run(self, source: ProtectedDataSource, epsilon: float, **kwargs) -> PlanResult:
        before = source.budget_consumed()
        rows, cols = self.shape
        n = source.domain_size
        if rows * cols != n:
            raise ValueError("2-D shape does not match the vector's domain size")
        # 10% of the budget estimates the total, the rest measures the grid.
        total_epsilon = 0.1 * epsilon
        noisy_total = max(source.vector_laplace(Total(n), total_epsilon)[0], 1.0)
        measurements = with_representation(
            uniform_grid_select(rows, cols, noisy_total, epsilon, c=self.c), self.representation
        )
        answers = source.vector_laplace(measurements, epsilon - total_epsilon)
        # The grid granularity follows the DP-noised total, so the strategy
        # varies across requests — keep its Gram out of the shared cache.
        estimate = infer_least_squares(measurements, answers)
        return self._wrap(
            source, before, estimate.x_hat, num_measurements=measurements.shape[0]
        )


class HdmmPlan(_SelectMeasureInferPlan):
    """Plan #13 — HDMM-style workload-optimised strategy (McKenna et al. 2018)."""

    name = "HDMM"
    signature = "SHD LM LS"
    plan_id = 13

    def __init__(
        self,
        workload: LinearQueryMatrix,
        representation: str = "implicit",
        noise: str = "laplace",
        delta: float | None = None,
    ):
        super().__init__(representation=representation, noise=noise, delta=delta)
        self.workload = ensure_matrix(workload)

    def selection_params(self) -> tuple:
        return (self.workload.strategy_key(),)

    def _select(self, source: ProtectedDataSource) -> LinearQueryMatrix:
        if self.workload.shape[1] != source.domain_size:
            raise ValueError("workload does not match the vector's domain size")
        return hdmm_select(self.workload)
