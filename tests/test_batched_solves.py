"""Multi-right-hand-side least squares and the striped plans built on it.

``least_squares`` accepts an ``(m, s)`` answer block and must agree with
``s`` column-by-column solves for every method.  HB-Striped and DAWA-Striped
use it to solve all stripes that share a strategy at once; the oracle tests
keep the old one-solve-per-stripe loop as the reference and check that the
kernel saw exactly the same measurements, in the same order, with the same
noise scales and spend.  Also covers the transposed-CSR cache of
``SparseMatrix`` and the ``partition_share`` guard of the two-stage plans.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest
from scipy import sparse as sp

from repro.dataset import Attribute, Relation, Schema, synthetic_cps
from repro.matrix import (
    DenseMatrix,
    HierarchicalQueries,
    Identity,
    ReductionMatrix,
    SparseMatrix,
    VStack,
)
from repro.operators.inference import least_squares
from repro.operators.partition import l1_partition_batch, stripe_partition
from repro.operators.selection import greedy_h_select, hb_select
from repro.plans import AhpPlan, DawaPlan, DawaStripedPlan, HbStripedPlan, cdf_estimator
from repro.plans import striped as striped_module
from repro.plans.base import infer_least_squares
from repro.private import protect
from repro.service import ArtifactCache
from repro.telemetry import Tracer, activate

# The package re-exports the function under the module's name.
least_squares_module = importlib.import_module("repro.operators.inference.least_squares")


def _systems():
    rng = np.random.default_rng(11)
    return [
        ("dense", DenseMatrix(rng.normal(size=(30, 12)))),
        ("hierarchical", HierarchicalQueries(16, branching=3)),
        # Sparse Gram: exercises the sparse-LU branch of the normal equations.
        ("sparse_gram", VStack([Identity(12), ReductionMatrix(np.arange(12) // 3)])),
    ]


def _block(matrix, columns=4, seed=5):
    return np.random.default_rng(seed).normal(scale=10.0, size=(matrix.shape[0], columns))


@pytest.mark.parametrize("name,matrix", _systems(), ids=[n for n, _ in _systems()])
class TestBlockLeastSquares:
    @pytest.mark.parametrize("method", ["lsmr", "normal", "direct", "auto"])
    def test_block_equals_column_by_column(self, name, matrix, method):
        answers = _block(matrix)
        block = least_squares(matrix, answers, method=method)
        assert block.x_hat.shape == (matrix.shape[1], answers.shape[1])
        columns = [least_squares(matrix, answers[:, j], method=method) for j in range(4)]
        for j, column in enumerate(columns):
            np.testing.assert_allclose(block.x_hat[:, j], column.x_hat, rtol=1e-9, atol=1e-9)
        expected_residual = np.sqrt(sum(c.residual_norm**2 for c in columns))
        assert block.residual_norm == pytest.approx(expected_residual, rel=1e-9)
        if method == "lsmr":
            assert block.iterations == sum(c.iterations for c in columns)

    def test_weighted_block_equals_column_by_column(self, name, matrix):
        answers = _block(matrix, columns=3)
        weights = np.linspace(0.5, 2.0, matrix.shape[0])
        block = least_squares(matrix, answers, weights=weights, method="normal")
        for j in range(3):
            column = least_squares(matrix, answers[:, j], weights=weights, method="normal")
            np.testing.assert_allclose(block.x_hat[:, j], column.x_hat, rtol=1e-9, atol=1e-9)

    def test_cached_gram_serves_blocks_and_vectors(self, name, matrix):
        cache = ArtifactCache()
        answers = _block(matrix, columns=3)
        block = least_squares(matrix, answers, method="normal", gram_cache=cache)
        assert len(cache) == 1
        column = least_squares(matrix, answers[:, 1], method="normal", gram_cache=cache)
        assert len(cache) == 1
        np.testing.assert_allclose(block.x_hat[:, 1], column.x_hat, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize(
        "shape",
        [lambda m: (m + 1, 2), lambda m: (m, 0), lambda m: (m, 2, 1)],
        ids=["extra_row", "no_columns", "three_d"],
    )
    def test_wrong_shaped_block_raises(self, name, matrix, shape):
        answers = np.zeros(shape(matrix.shape[0]))
        with pytest.raises(ValueError, match="do not match"):
            least_squares(matrix, answers, method="normal")


def _solver_methods(run) -> list[str]:
    tracer = Tracer()
    with activate(tracer):
        run()
    return [s.attributes["method"] for s in tracer.spans() if s.name == "solve.least_squares"]


class TestAutoRule:
    """Several columns amortise the factorisation like a supplied cache does."""

    # 18 rows x 12 columns: square-or-taller, but short of the 2x aspect.
    MATRIX = DenseMatrix(np.random.default_rng(3).normal(size=(18, 12)))

    @pytest.mark.parametrize(
        "answers, expected",
        [
            (np.ones(18), "lsmr"),
            (np.ones((18, 1)), "lsmr"),
            (np.ones((18, 2)), "normal"),
        ],
    )
    def test_auto_reads_the_number_of_columns(self, answers, expected):
        assert _solver_methods(lambda: least_squares(self.MATRIX, answers, method="auto")) == [
            expected
        ]

    @pytest.mark.parametrize(
        "answers, expected",
        [(np.ones(18), "lsmr"), (np.ones((18, 1)), "lsmr"), (np.ones((18, 3)), "normal")],
    )
    def test_plan_default_resolves_blocks_to_auto(self, answers, expected):
        assert _solver_methods(lambda: infer_least_squares(self.MATRIX, answers)) == [expected]

    def test_domain_bound_still_applies(self, monkeypatch):
        monkeypatch.setattr(least_squares_module, "_AUTO_NORMAL_MAX_DOMAIN", 8)
        methods = _solver_methods(
            lambda: least_squares(self.MATRIX, np.ones((18, 4)), method="auto")
        )
        assert methods == ["lsmr"]


class TestSparseTransposeCache:
    def _matrix(self):
        return SparseMatrix(sp.random(40, 25, density=0.2, random_state=4, format="csr"))

    def test_rmatvec_and_rmatmat_match_dense_before_and_after_first_use(self):
        rng = np.random.default_rng(0)
        v, block = rng.normal(size=40), rng.normal(size=(40, 3))
        for first in ("rmatvec", "rmatmat"):
            matrix = self._matrix()
            dense_t = matrix.dense().T
            for _ in range(2):  # the first call builds the transpose, the second reuses it
                if first == "rmatvec":
                    np.testing.assert_allclose(matrix.rmatvec(v), dense_t @ v, atol=1e-12)
                    np.testing.assert_allclose(matrix.rmatmat(block), dense_t @ block, atol=1e-12)
                else:
                    np.testing.assert_allclose(matrix.rmatmat(block), dense_t @ block, atol=1e-12)
                    np.testing.assert_allclose(matrix.rmatvec(v), dense_t @ v, atol=1e-12)

    def test_transpose_is_built_once(self):
        matrix = self._matrix()
        matrix.rmatvec(np.ones(40))
        kept = matrix._csr_t()
        matrix.rmatmat(np.ones((40, 2)))
        assert matrix._csr_t() is kept
        np.testing.assert_allclose(matrix.T.dense(), matrix.dense().T, atol=1e-12)


# ----------------------------------------------------------------------------
# Striped plans: batched solves against the old per-stripe loop.
# ----------------------------------------------------------------------------
def _census():
    relation = synthetic_cps(num_records=4000, income_bins=20, seed=2000)
    return relation, relation.schema.domain


def _reference_hb_striped(plan, source, epsilon, gram_cache=None):
    """HB-Striped as one strategy and one solve per stripe."""
    partition = stripe_partition(plan.domain, plan.stripe_axis)
    stripes = source.split_by_partition(partition)
    measurements = hb_select(plan.domain[plan.stripe_axis])
    estimates = np.zeros(source.domain_size)
    for stripe, cells in zip(stripes, partition.split_indices()):
        answers = stripe.vector_laplace(measurements, epsilon)
        estimate = infer_least_squares(measurements, answers, gram_cache=gram_cache)
        estimates[cells] = estimate.x_hat
    return estimates


def _reference_dawa_striped(plan, source, epsilon):
    """DAWA-Striped as one Greedy-H strategy and one solve per stripe."""
    partition = stripe_partition(plan.domain, plan.stripe_axis)
    stripes = source.split_by_partition(partition)
    partition_epsilon = plan.partition_share * epsilon
    measure_epsilon = epsilon - partition_epsilon
    identity = Identity(plan.domain[plan.stripe_axis])
    noisy = np.stack([stripe.vector_laplace(identity, partition_epsilon) for stripe in stripes])
    assignments = l1_partition_batch(noisy, 1.0 / partition_epsilon)
    estimates = np.zeros(source.domain_size)
    for stripe, cells, assignment in zip(stripes, partition.split_indices(), assignments):
        reduction = ReductionMatrix(assignment)
        reduced = stripe.reduce_by_partition(reduction)
        measurements = greedy_h_select(reduced.domain_size)
        answers = reduced.vector_laplace(measurements, measure_epsilon)
        estimates[cells] = reduction.expand_vector(infer_least_squares(measurements, answers).x_hat)
    return estimates


def _records(source):
    return [
        (r.source, r.operator, r.epsilon, r.noise_scale, r.num_queries, r.cost)
        for r in source.kernel.history()
    ]


class TestStripedOracle:
    @pytest.mark.parametrize("epsilon", [0.05, 1.0])
    def test_dawa_striped_matches_per_stripe_loop(self, epsilon):
        relation, domain = _census()
        plan = DawaStripedPlan(domain, stripe_axis=0)
        batched_source = protect(relation, epsilon, seed=4).vectorize()
        result = plan.run(batched_source, epsilon)
        reference_source = protect(relation, epsilon, seed=4).vectorize()
        reference = _reference_dawa_striped(plan, reference_source, epsilon)

        assert _records(batched_source) == _records(reference_source)
        assert batched_source.budget_consumed() == reference_source.budget_consumed()
        # Groups that share a size now take the normal equations, the
        # reference takes LSMR: they agree to LSMR's tolerance.
        np.testing.assert_allclose(result.x_hat, reference, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("cached", [True, False])
    def test_hb_striped_matches_per_stripe_loop(self, cached):
        relation, domain = _census()
        plan = HbStripedPlan(domain, stripe_axis=0)
        batched_source = protect(relation, 0.5, seed=6).vectorize()
        result = plan.run(batched_source, 0.5, gram_cache=ArtifactCache() if cached else None)
        reference_source = protect(relation, 0.5, seed=6).vectorize()
        reference = _reference_hb_striped(
            plan, reference_source, 0.5, gram_cache=ArtifactCache() if cached else None
        )

        assert _records(batched_source) == _records(reference_source)
        assert batched_source.budget_consumed() == reference_source.budget_consumed()
        if cached:
            # Both sides solve the normal equations of the same strategy.
            np.testing.assert_allclose(result.x_hat, reference, rtol=1e-9, atol=1e-9)
        else:
            # The stand-alone reference runs LSMR per stripe.
            np.testing.assert_allclose(result.x_hat, reference, rtol=1e-6, atol=1e-6)

    def test_hb_striped_measures_per_stripe_and_solves_once(self, monkeypatch):
        relation, domain = _census()
        abs_calls = []
        original_abs = HierarchicalQueries.__abs__

        def counting_abs(matrix):
            abs_calls.append(matrix)
            return original_abs(matrix)

        monkeypatch.setattr(HierarchicalQueries, "__abs__", counting_abs)
        tracer = Tracer()
        with activate(tracer):
            result = HbStripedPlan(domain, stripe_axis=0).run(
                protect(relation, 0.5, seed=2).vectorize(), 0.5
            )
        # One L1-sensitivity derivation for the strategy every stripe shares.
        assert len(abs_calls) == 1
        solves = [s for s in tracer.spans() if s.name == "solve.least_squares"]
        assert [s.attributes["rhs"] for s in solves] == [result.info["num_stripes"]]

    def test_dawa_striped_builds_one_strategy_and_one_solve_per_size(self, monkeypatch):
        relation, domain = _census()
        built = []

        def counting_select(k, *args):
            built.append(k)
            return greedy_h_select(k, *args)

        monkeypatch.setattr(striped_module, "greedy_h_select", counting_select)
        tracer = Tracer()
        with activate(tracer):
            result = DawaStripedPlan(domain, stripe_axis=0).run(
                protect(relation, 0.5, seed=2).vectorize(), 0.5
            )
        assert len(set(built)) == len(built) < result.info["num_stripes"]
        solves = [s for s in tracer.spans() if s.name == "solve.least_squares"]
        assert sorted(s.attributes["cols"] for s in solves) == sorted(built)
        assert sum(s.attributes["rhs"] for s in solves) == result.info["num_stripes"]

    def test_hb_striped_shares_one_gram_across_requests(self):
        relation, domain = _census()
        cache = ArtifactCache()
        plan = HbStripedPlan(domain, stripe_axis=0)
        for seed in range(2):
            plan.run(protect(relation, 0.5, seed=seed).vectorize(), 0.5, gram_cache=cache)
        assert [key[0] for key in cache._entries] == ["least_squares_gram"]

    def test_dawa_striped_strategies_stay_out_of_the_shared_cache(self):
        relation, domain = _census()
        cache = ArtifactCache()
        DawaStripedPlan(domain, stripe_axis=0).run(
            protect(relation, 0.5, seed=1).vectorize(), 0.5, gram_cache=cache
        )
        assert len(cache) == 0


# ----------------------------------------------------------------------------
# partition_share outside (0, 1) is rejected before anything is charged.
# ----------------------------------------------------------------------------
def _vector_source(n=32):
    values = np.random.default_rng(2).integers(0, 20, size=n).astype(np.float64)
    relation = Relation.from_histogram(Schema.build([Attribute("v", n)]), values)
    return relation, protect(relation, 1.0, seed=0)


@pytest.mark.parametrize("share", [1.5, 1.0, 0.0, -0.25])
@pytest.mark.parametrize(
    "build",
    [
        lambda share: DawaPlan(partition_share=share),
        lambda share: AhpPlan(partition_share=share),
        lambda share: DawaStripedPlan((32,), stripe_axis=0, partition_share=share),
    ],
    ids=["DAWA", "AHP", "DAWA-Striped"],
)
def test_out_of_range_partition_share_is_rejected_unspent(build, share):
    _, table = _vector_source()
    source = table.vectorize()
    with pytest.raises(ValueError, match="partition_share"):
        build(share).run(source, 1.0)
    assert source.budget_consumed() == 0


def test_cdf_estimator_rejects_partition_share_unspent():
    _, table = _vector_source()
    with pytest.raises(ValueError, match="partition_share"):
        cdf_estimator(table, "v", 1.0, partition_share=1.5)
    assert table.budget_consumed() == 0
