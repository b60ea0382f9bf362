"""Tests of the sparse-aware Gram/solve engine and strategy-key protocol.

Covers the PR-3 tentpole: ``gram_sparse``/``gram_auto``/``strategy_key``
across the full matrix hierarchy, the sparse branch of the normal-equations
inference artifact, and the scheduler-level Gram sharing that reuses one
factorisation across tenants.  Also pins the satellite bugfixes: weighted
residual-norm units, the all-zero-weights guard, the structural (dense-free)
``sparse()`` builders, and the rejected-request audit event.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse as sp

from repro.matrix import (
    DenseMatrix,
    ExpansionMatrix,
    HaarWavelet,
    HierarchicalQueries,
    HStack,
    Identity,
    Kronecker,
    LinearQueryMatrix,
    Ones,
    Prefix,
    Product,
    RangeQueries,
    RangeQueries2D,
    ReductionMatrix,
    SparseMatrix,
    Suffix,
    Total,
    VStack,
    Weighted,
    all_kway_marginals,
)
from repro.operators.inference import (
    build_normal_equations,
    least_squares,
    least_squares_from_parts,
)
from repro.operators.inference.least_squares import NormalEquations
from repro.service import ArtifactCache


def _rng(seed=0):
    return np.random.default_rng(seed)


def _reduction(n=12, groups_of=3, seed=3):
    groups = _rng(seed).integers(0, n // groups_of, size=n)
    groups[: n // groups_of] = np.arange(n // groups_of)  # every group non-empty
    return ReductionMatrix(groups)


def _catalog() -> list[tuple[str, LinearQueryMatrix]]:
    """One instance of every matrix class, plus nested compositions."""
    rng = _rng(42)
    red = _reduction()
    expansion = red.pseudo_inverse()
    sparse_mat = SparseMatrix(sp.random(9, 6, density=0.4, random_state=7, format="csr"))
    ranges = RangeQueries(8, [(0, 3), (2, 7), (5, 5), (0, 7)])
    return [
        ("identity", Identity(7)),
        ("ones", Ones(3, 5)),
        ("total", Total(6)),
        ("prefix", Prefix(9)),
        ("suffix", Suffix(9)),
        ("haar", HaarWavelet(8)),
        ("dense", DenseMatrix(rng.normal(size=(6, 4)))),
        ("sparse", sparse_mat),
        ("reduction", red),
        ("expansion", expansion),
        ("squared_expansion", expansion.square()),
        ("transpose", Prefix(6).T),
        ("weighted", Weighted(Prefix(5), -1.5)),
        ("vstack", VStack([Identity(8), ranges])),
        ("hstack", HStack([Identity(4), Ones(4, 3)])),
        ("product", Product(sparse_mat, DenseMatrix(rng.normal(size=(6, 5))))),
        ("kronecker", Kronecker([Prefix(3), Identity(2), Total(2)])),
        ("range_queries", ranges),
        ("hierarchical", HierarchicalQueries(8)),
        ("ranges_2d", RangeQueries2D(4, 4, [(0, 1, 0, 3), (2, 3, 1, 2), (0, 3, 0, 0)])),
        ("marginals", all_kway_marginals((2, 3, 2), 2)),
        (
            "nested",
            VStack(
                [
                    Weighted(Kronecker([Identity(3), Total(4)]), 2.0),
                    Product(Ones(5, 3), ReductionMatrix([0, 0, 1, 1, 1, 2, 2, 0, 1, 2, 1, 0])),
                ]
            ),
        ),
        ("expansion_product", Product(ranges, ExpansionMatrix(_reduction(8, 2, 5)))),
    ]


@pytest.mark.parametrize("name,matrix", _catalog(), ids=[n for n, _ in _catalog()])
class TestGramProtocol:
    def test_gram_sparse_matches_dense(self, name, matrix):
        dense = matrix.dense()
        expected = dense.T @ dense
        got = matrix.gram_sparse()
        assert sp.issparse(got)
        np.testing.assert_allclose(got.toarray(), expected, atol=1e-9)

    def test_gram_dense_matches_explicit(self, name, matrix):
        dense = matrix.dense()
        np.testing.assert_allclose(matrix.gram_dense(), dense.T @ dense, atol=1e-9)

    def test_gram_nnz_estimate_is_an_upper_bound(self, name, matrix):
        gram = matrix.gram_sparse()
        gram.eliminate_zeros()
        assert matrix.gram_nnz_estimate() >= gram.nnz

    def test_gram_auto_matches_dense_either_way(self, name, matrix):
        gram = matrix.gram_auto()
        dense = matrix.dense()
        arr = gram.toarray() if sp.issparse(gram) else gram
        np.testing.assert_allclose(arr, dense.T @ dense, atol=1e-9)

    def test_strategy_key_is_hashable_and_stable(self, name, matrix):
        key = matrix.strategy_key()
        hash(key)
        assert key == matrix.strategy_key()

    def test_sparse_matches_dense(self, name, matrix):
        # The structural sparse() builders must agree with dense().
        np.testing.assert_allclose(matrix.sparse().toarray(), matrix.dense(), atol=1e-12)


class TestGramAutoSelection:
    def test_disjoint_partition_strategy_is_sparse(self):
        strategy = VStack([_reduction(64, 8), Identity(64)])
        assert strategy.gram_nnz_estimate() < 0.25 * 64 * 64
        assert sp.issparse(strategy.gram_auto())

    def test_dense_structures_stay_dense(self):
        assert isinstance(Prefix(16).gram_auto(), np.ndarray)
        assert isinstance(HierarchicalQueries(16).gram_auto(), np.ndarray)

    def test_identity_and_expansion_closed_forms(self):
        assert Identity(10).gram_sparse().nnz == 10
        red = _reduction()
        expansion = red.pseudo_inverse()
        gram = expansion.gram_sparse()
        # diag(1/|g|): exactly p entries.
        assert gram.nnz == red.num_groups
        np.testing.assert_allclose(gram.diagonal(), 1.0 / red.group_sizes)

    def test_kronecker_gram_factorises(self):
        kron = Kronecker([Identity(4), _reduction(6, 2, 9)])
        assert sp.issparse(kron.gram_auto())
        dense = kron.dense()
        np.testing.assert_allclose(kron.gram_sparse().toarray(), dense.T @ dense, atol=1e-9)


class TestStrategyKeys:
    def test_equal_constructions_share_keys(self):
        assert HierarchicalQueries(32).strategy_key() == HierarchicalQueries(32).strategy_key()
        assert Identity(5).strategy_key() == Identity(5).strategy_key()
        groups = [0, 1, 1, 2, 0, 2]
        assert (
            ReductionMatrix(groups).strategy_key() == ReductionMatrix(groups).strategy_key()
        )
        intervals = [(0, 3), (1, 2)]
        assert (
            RangeQueries(6, intervals).strategy_key()
            == RangeQueries(6, intervals).strategy_key()
        )

    def test_different_constructions_differ(self):
        assert Identity(5).strategy_key() != Identity(6).strategy_key()
        assert HierarchicalQueries(32).strategy_key() != HierarchicalQueries(32, 4).strategy_key()
        assert (
            ReductionMatrix([0, 0, 1]).strategy_key()
            != ReductionMatrix([0, 1, 1]).strategy_key()
        )
        assert (
            Weighted(Prefix(4), 2.0).strategy_key() != Weighted(Prefix(4), 3.0).strategy_key()
        )

    def test_composite_keys_recurse(self):
        a = VStack([Identity(4), Prefix(4)]).strategy_key()
        b = VStack([Identity(4), Prefix(4)]).strategy_key()
        c = VStack([Identity(4), Suffix(4)]).strategy_key()
        assert a == b != c

    def test_raw_fallback_digests_content(self):
        # A class with no override digests its materialised content.
        class Custom(LinearQueryMatrix):
            def __init__(self, array):
                self.array = np.asarray(array, dtype=np.float64)
                self.shape = self.array.shape

            def matvec(self, v):
                return self.array @ v

            def rmatvec(self, v):
                return self.array.T @ v

        one = Custom([[1.0, 2.0], [0.0, 1.0]])
        same = Custom([[1.0, 2.0], [0.0, 1.0]])
        other = Custom([[1.0, 2.0], [0.0, 3.0]])
        assert one.strategy_key() == same.strategy_key()
        assert one.strategy_key() != other.strategy_key()


class TestNormalEquationsSparse:
    def test_sparse_branch_solves_like_dense(self):
        strategy = VStack([_reduction(32, 4, 1), Identity(32)])
        rng = _rng(11)
        answers = strategy.matvec(rng.normal(size=32)) + rng.normal(size=strategy.shape[0])
        sparse_ne = build_normal_equations(strategy, prefer="sparse")
        dense_ne = build_normal_equations(strategy, prefer="dense")
        assert sparse_ne.is_sparse and not dense_ne.is_sparse
        rhs = strategy.rmatvec(answers)
        np.testing.assert_allclose(sparse_ne.solve(rhs), dense_ne.solve(rhs), atol=1e-8)

    def test_auto_prefers_sparse_for_partition_strategy(self):
        strategy = VStack([_reduction(32, 4, 2), Identity(32)])
        assert build_normal_equations(strategy).is_sparse

    def test_singular_sparse_gram_falls_back_to_pseudo_inverse(self):
        # A measurement matrix with an unmeasured cell: the Gram has a zero
        # row/column, the sparse LU is singular, and solves fall back to the
        # minimum-norm least-squares solution.
        mat = sp.diags(np.array([1.0, 2.0, 0.0, 1.0, 3.0, 1.0, 1.0, 1.0, 1.0, 1.0]))
        strategy = SparseMatrix(mat.tocsr())
        ne = build_normal_equations(strategy, prefer="sparse")
        assert ne.is_sparse and ne.lu is None and ne.cho is None
        answers = np.ones(10)
        x_hat = ne.solve(strategy.rmatvec(answers))
        gram = ne.gram.toarray()
        np.testing.assert_allclose(gram @ x_hat, strategy.rmatvec(answers), atol=1e-9)

    def test_least_squares_normal_on_sparse_gram_strategy(self):
        strategy = VStack([_reduction(64, 8, 4), Identity(64)])
        rng = _rng(21)
        x_true = rng.normal(size=64)
        answers = strategy.matvec(x_true)
        result = least_squares(strategy, answers, method="normal")
        np.testing.assert_allclose(result.x_hat, x_true, atol=1e-8)

    def test_normal_equations_dataclass_is_backward_compatible(self):
        ne = NormalEquations(np.eye(3), cho=None)
        np.testing.assert_allclose(ne.solve(np.ones(3)), np.ones(3))


class TestNormalEquationsFiniteChecks:
    """The factor is checked once at build; every solve still checks its rhs."""

    @pytest.mark.parametrize("prefer", ["dense", "sparse"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rhs_raises(self, prefer, bad):
        strategy = VStack([_reduction(32, 4, 1), Identity(32)])
        ne = build_normal_equations(strategy, prefer=prefer)
        assert ne.is_sparse == (prefer == "sparse")
        rhs = np.ones(32)
        rhs[5] = bad
        with pytest.raises(ValueError):
            ne.solve(rhs)
        with pytest.raises(ValueError):
            ne.solve(np.stack([np.ones(32), rhs], axis=1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("prefer", ["auto", "dense", "sparse"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gram_fails_at_build(self, prefer, bad):
        mat = sp.identity(8, format="csr") * 2.0
        mat = mat.tolil()
        mat[3, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            build_normal_equations(SparseMatrix(mat.tocsr()), prefer=prefer)
        with pytest.raises(ValueError, match="non-finite"):
            build_normal_equations(DenseMatrix(mat.toarray()), prefer=prefer)

    def test_multi_rhs_solve_matches_column_solves(self):
        strategy = HierarchicalQueries(32)
        ne = build_normal_equations(strategy, prefer="dense")
        rhs = _rng(4).normal(size=(32, 3))
        stacked = ne.solve(rhs)
        for j in range(3):
            np.testing.assert_allclose(stacked[:, j], ne.solve(rhs[:, j]), rtol=1e-12)


class TestWeightedResidualUnits:
    def test_uniform_weights_scale_residual_consistently(self):
        queries = HierarchicalQueries(16)
        rng = _rng(5)
        answers = queries.matvec(rng.normal(size=16)) + rng.normal(size=queries.shape[0])
        base = least_squares(queries, answers, method="normal")
        doubled = least_squares(
            queries, answers, weights=np.full(queries.shape[0], 2.0), method="normal"
        )
        # Same minimiser, but the residual is reported in weighted units.
        np.testing.assert_allclose(doubled.x_hat, base.x_hat, atol=1e-8)
        assert doubled.residual_norm == pytest.approx(2.0 * base.residual_norm, rel=1e-8)

    def test_uniform_and_nearly_uniform_weights_agree(self):
        # Regression: before the fix, exactly-uniform weights skipped the
        # scaling so residual_norm jumped by the weight factor relative to an
        # epsilon-perturbed (non-uniform) weight vector.
        queries = Prefix(12)
        rng = _rng(6)
        answers = queries.matvec(rng.normal(size=12)) + rng.normal(size=12)
        uniform = np.full(12, 3.0)
        nearly = uniform.copy()
        nearly[0] *= 1.0 + 1e-12
        r_uniform = least_squares(queries, answers, weights=uniform, method="normal")
        r_nearly = least_squares(queries, answers, weights=nearly, method="normal")
        assert r_uniform.residual_norm == pytest.approx(r_nearly.residual_norm, rel=1e-6)

    def test_from_parts_units_match_across_scale_splits(self):
        queries = HierarchicalQueries(8)
        rng = _rng(7)
        y1 = queries.matvec(rng.normal(size=8)) + rng.normal(size=queries.shape[0])
        y2 = queries.matvec(rng.normal(size=8)) + rng.normal(size=queries.shape[0])
        equal = least_squares_from_parts(
            [(queries, y1, 2.0), (queries, y2, 2.0)], method="normal"
        )
        perturbed = least_squares_from_parts(
            [(queries, y1, 2.0), (queries, y2, 2.0 * (1.0 + 1e-12))], method="normal"
        )
        assert equal.residual_norm == pytest.approx(perturbed.residual_norm, rel=1e-6)

    def test_all_zero_weights_rejected(self):
        queries = Prefix(4)
        answers = np.ones(4)
        with pytest.raises(ValueError, match="all zero"):
            least_squares(queries, answers, weights=np.zeros(4))

    def test_uniform_negative_weights_keep_residual_nonnegative(self):
        queries = Prefix(6)
        rng = _rng(13)
        answers = queries.matvec(rng.normal(size=6)) + rng.normal(size=6)
        positive = least_squares(queries, answers, weights=np.full(6, 2.0), method="normal")
        negative = least_squares(queries, answers, weights=np.full(6, -2.0), method="normal")
        assert negative.residual_norm >= 0.0
        assert negative.residual_norm == pytest.approx(positive.residual_norm, rel=1e-9)
        np.testing.assert_allclose(negative.x_hat, positive.x_hat, atol=1e-9)

    def test_nonuniform_weights_keep_the_sparse_gram_path(self):
        # Row weighting is a diagonal left factor: the Gram's sparsity
        # pattern is unchanged, so the weighted system must still factorise
        # sparse (Product.gram_nnz_estimate sees through the diagonal).
        strategy = VStack([_reduction(64, 8, 6), Identity(64)])
        rng = _rng(14)
        weights = rng.uniform(0.5, 2.0, size=strategy.shape[0])
        weighted = Product(SparseMatrix(sp.diags(weights)), strategy)
        assert weighted.gram_nnz_estimate() == strategy.gram_nnz_estimate()
        assert build_normal_equations(weighted).is_sparse
        x_true = rng.normal(size=64)
        answers = strategy.matvec(x_true)
        result = least_squares(strategy, answers, weights=weights, method="normal")
        np.testing.assert_allclose(result.x_hat, x_true, atol=1e-8)

    def test_lsmr_weighted_matches_normal_units(self):
        queries = HierarchicalQueries(8)
        rng = _rng(8)
        answers = queries.matvec(rng.normal(size=8)) + rng.normal(size=queries.shape[0])
        weights = np.full(queries.shape[0], 4.0)
        lsmr = least_squares(queries, answers, weights=weights, method="lsmr")
        normal = least_squares(queries, answers, weights=weights, method="normal")
        assert lsmr.residual_norm == pytest.approx(normal.residual_norm, rel=1e-5)


class TestAutoGramKeys:
    def test_gram_cache_without_explicit_key_shares_by_strategy(self):
        cache = ArtifactCache()
        rng = _rng(9)
        for trial in range(3):
            queries = HierarchicalQueries(32)  # rebuilt every time, same key
            answers = queries.matvec(rng.normal(size=32))
            least_squares(queries, answers, method="normal", gram_cache=cache)
        assert cache.stats["misses"] == 1
        assert cache.stats["hits"] == 2

    def test_nonuniform_weights_change_the_derived_key(self):
        cache = ArtifactCache()
        queries = Prefix(8)
        answers = np.arange(8.0)
        least_squares(queries, answers, method="normal", gram_cache=cache)
        weights = np.ones(8)
        weights[0] = 3.0
        least_squares(queries, answers, weights=weights, method="normal", gram_cache=cache)
        # Non-uniform weights produce a different weighted strategy → two entries.
        assert cache.stats["misses"] == 2

    def test_uniform_scales_share_one_gram_artifact(self):
        # The minimiser is invariant under a uniform row scaling, so requests
        # at different noise scales (uniform weights) must reuse one cached
        # factorisation instead of building an n x n artifact per scale.
        cache = ArtifactCache()
        queries = Prefix(8)
        answers = np.arange(8.0)
        for scale in (1.0, 2.0, 5.0):
            result = least_squares(
                queries,
                answers,
                weights=np.full(8, scale),
                method="normal",
                gram_cache=cache,
            )
        assert cache.stats["misses"] == 1
        assert cache.stats["hits"] == 2

    def test_auto_method_relaxes_aspect_when_cache_present(self):
        # A square strategy: auto stays with LSMR stand-alone but switches to
        # the shared normal equations when a Gram cache is available.
        queries = Prefix(16)
        answers = np.arange(16.0)
        without = least_squares(queries, answers, method="auto")
        assert without.iterations > 1  # LSMR path
        cache = ArtifactCache()
        with_cache = least_squares(queries, answers, method="auto", gram_cache=cache)
        assert with_cache.iterations == 1  # normal path
        assert len(cache) == 1
        np.testing.assert_allclose(with_cache.x_hat, without.x_hat, atol=1e-6)
