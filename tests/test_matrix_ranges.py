"""Unit tests for range-query and hierarchical matrix constructions."""

import numpy as np
import pytest
from scipy import sparse as sp

from repro.matrix import (
    HierarchicalQueries,
    RangeQueries,
    RangeQueries2D,
    hierarchical_intervals,
    optimal_branching_factor,
    quadtree_rects,
)


class TestRangeQueries:
    def test_dense_rows_are_indicator_ranges(self):
        r = RangeQueries(6, [(1, 3), (0, 5)])
        dense = r.dense()
        assert np.array_equal(dense[0], [0, 1, 1, 1, 0, 0])
        assert np.array_equal(dense[1], [1, 1, 1, 1, 1, 1])

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(0)
        r = RangeQueries(20, [(0, 4), (5, 19), (3, 10), (7, 7)])
        v = rng.normal(size=20)
        assert np.allclose(r.matvec(v), r.dense() @ v)

    def test_rmatvec_matches_dense(self):
        rng = np.random.default_rng(1)
        r = RangeQueries(20, [(0, 4), (5, 19), (3, 10)])
        u = rng.normal(size=3)
        assert np.allclose(r.rmatvec(u), r.dense().T @ u)

    @pytest.mark.parametrize("seed", [None, 0, 1, 2, 3])
    def test_sensitivity_is_max_coverage(self, seed):
        if seed is None:
            n, intervals = 10, [(0, 9), (2, 5), (3, 3)]
        else:
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 200))
            lo = rng.integers(0, n, size=int(rng.integers(1, 80)))
            intervals = [(int(a), int(rng.integers(a, n))) for a in lo]
        r = RangeQueries(n, intervals)
        assert r.sensitivity() == np.abs(r.dense()).sum(axis=0).max()

    def test_difference_matrix_is_canonical_csr(self):
        # Reference: the COO triplets (+1 at hi, -1 at lo - 1) scipy
        # canonicalises; the direct CSR build must match it exactly.
        rng = np.random.default_rng(7)
        n = 50
        lo = rng.integers(0, n, size=40)
        intervals = [(int(a), int(rng.integers(a, n))) for a in lo] + [(0, 0), (0, n - 1)]
        triplets = []
        for i, (a, b) in enumerate(intervals):
            triplets.append((i, b, 1.0))
            if a > 0:
                triplets.append((i, a - 1, -1.0))
        rows, cols, vals = zip(*triplets)
        expected = sp.csr_matrix((vals, (rows, cols)), shape=(len(intervals), n))
        got = RangeQueries(n, intervals)._difference_matrix().matrix
        for field in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, field), getattr(expected, field))
            assert getattr(got, field).dtype == getattr(expected, field).dtype

    def test_abs_square_are_noops(self):
        r = RangeQueries(5, [(0, 2)])
        assert abs(r) is r
        assert r.square() is r

    def test_invalid_interval_rejected(self):
        for bad in ([(3, 7)], [(0, 1), (-1, 2)], [(4, 2)], [(0, 5)], [(0, 1, 2)]):
            with pytest.raises(ValueError):
                RangeQueries(5, bad)
        with pytest.raises(ValueError, match=r"\(3, 7\)"):
            RangeQueries(5, [(0, 1), (3, 7)])
        with pytest.raises(ValueError):
            RangeQueries(5, [])

    def test_accepts_array_and_generator_input(self):
        expected = RangeQueries(6, [(1, 3), (0, 5)])
        for intervals in (np.array([[1, 3], [0, 5]]), ((a, b) for a, b in [(1, 3), (0, 5)])):
            r = RangeQueries(6, intervals)
            assert r.intervals == expected.intervals
            assert r.strategy_key() == expected.strategy_key()

    def test_row(self):
        r = RangeQueries(5, [(1, 3)])
        assert np.allclose(r.row(0), [0, 1, 1, 1, 0])


def _frontier_intervals(n: int, branching: int) -> list[tuple[int, int]]:
    """Reference oracle: the original one-node-at-a-time stack construction."""
    intervals = []
    frontier = [(0, n - 1)]
    while frontier:
        lo, hi = frontier.pop()
        if hi - lo + 1 <= 1:
            continue
        intervals.append((lo, hi))
        edges = np.linspace(lo, hi + 1, branching + 1).astype(int)
        for k in range(branching):
            c_lo, c_hi = edges[k], edges[k + 1] - 1
            if c_hi >= c_lo:
                frontier.append((c_lo, c_hi))
    return intervals


class TestHierarchicalQueries:
    def test_includes_identity_and_root(self):
        h = HierarchicalQueries(8, branching=2)
        dense = h.dense()
        # First 8 rows are the identity.
        assert np.array_equal(dense[:8], np.eye(8))
        # Some row is the full-domain total.
        assert any(np.array_equal(row, np.ones(8)) for row in dense)

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(2)
        h = HierarchicalQueries(16, branching=4)
        v = rng.normal(size=16)
        assert np.allclose(h.matvec(v), h.dense() @ v)

    def test_rmatvec_matches_dense(self):
        rng = np.random.default_rng(3)
        h = HierarchicalQueries(16, branching=3)
        u = rng.normal(size=h.shape[0])
        assert np.allclose(h.rmatvec(u), h.dense().T @ u)

    def test_full_column_rank(self):
        h = HierarchicalQueries(12, branching=2)
        assert np.linalg.matrix_rank(h.dense()) == 12

    def test_hierarchical_intervals_cover_domain(self):
        intervals = hierarchical_intervals(10, branching=2)
        assert (0, 9) in intervals
        for lo, hi in intervals:
            assert 0 <= lo <= hi <= 9
            assert hi - lo + 1 >= 2  # unit intervals excluded

    def test_invalid_branching(self):
        with pytest.raises(ValueError):
            hierarchical_intervals(8, branching=1)

    @pytest.mark.parametrize("branching", range(2, 17))
    def test_matches_frontier_loop_in_order(self, branching):
        # Order matters: it fixes which noise draw lands on which row.
        for n in [*range(1, 600), 1023, 1025, 2048, 3000, 4096, 5000, 28000]:
            assert hierarchical_intervals(n, branching) == _frontier_intervals(n, branching), n


class TestOptimalBranching:
    def test_within_range(self):
        for n in [2, 10, 100, 4096, 10**6]:
            b = optimal_branching_factor(n)
            assert 2 <= b <= 16

    def test_monotone_reasonable(self):
        # Larger domains favour larger branching factors (weakly).
        assert optimal_branching_factor(10**6) >= optimal_branching_factor(16)


class TestRangeQueries2D:
    def test_dense_rectangles(self):
        r = RangeQueries2D(3, 4, [(0, 1, 1, 2)])
        block = r.dense()[0].reshape(3, 4)
        expected = np.zeros((3, 4))
        expected[0:2, 1:3] = 1.0
        assert np.array_equal(block, expected)

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(4)
        rects = [(0, 2, 0, 2), (1, 3, 2, 5), (0, 0, 0, 0)]
        r = RangeQueries2D(4, 6, rects)
        v = rng.normal(size=24)
        assert np.allclose(r.matvec(v), r.dense() @ v)

    def test_rmatvec_matches_dense(self):
        rng = np.random.default_rng(5)
        rects = [(0, 2, 0, 2), (1, 3, 2, 5)]
        r = RangeQueries2D(4, 6, rects)
        u = rng.normal(size=2)
        assert np.allclose(r.rmatvec(u), r.dense().T @ u)

    def test_out_of_domain_rect_rejected(self):
        with pytest.raises(ValueError):
            RangeQueries2D(3, 3, [(0, 3, 0, 2)])


class TestQuadtree:
    def test_root_covers_domain(self):
        rects = quadtree_rects(8, 8)
        assert (0, 7, 0, 7) in rects

    def test_leaves_reach_min_size(self):
        rects = quadtree_rects(8, 8, min_size=1)
        unit_cells = [r for r in rects if r[0] == r[1] and r[2] == r[3]]
        assert len(unit_cells) == 64

    def test_all_rects_valid(self):
        for r_lo, r_hi, c_lo, c_hi in quadtree_rects(5, 9, min_size=2):
            assert 0 <= r_lo <= r_hi < 5
            assert 0 <= c_lo <= c_hi < 9
