"""Range-query and hierarchical matrix constructions (Sec. 7.5).

A 1-D range query ``[i, j]`` sums cells ``i..j`` and can be written as the
difference of two prefix queries.  A workload of ``m`` range queries is
therefore representable as ``Product(Sparse, Prefix)`` where the sparse factor
has at most two non-zero entries per row — giving O(m + n) matvec time versus
O(m n) for explicit representations (Example 7.4 of the paper).

Hierarchical matrices (H2, HB, quadtrees, grids) are special collections of
range queries; they are represented as ``Union(Identity, Product(Sparse,
Prefix))`` following the paper's recommendation.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
from scipy import sparse as sp

from .base import LinearQueryMatrix, _content_digest
from .combinators import Kronecker, Product, VStack
from .core import Identity, Prefix
from .dense import SparseMatrix


class RangeQueries(LinearQueryMatrix):
    """A workload of 1-D range queries stored implicitly as ``Sparse x Prefix``.

    Parameters
    ----------
    n:
        Domain size.
    intervals:
        Iterable of ``(lo, hi)`` pairs with ``0 <= lo <= hi < n``; each pair is
        the inclusive range ``[lo, hi]``.
    """

    #: entries of the represented matrix are all 0/1 so abs and square are no-ops
    _binary_valued = True

    def __init__(self, n: int, intervals: Iterable[tuple[int, int]]):
        self.n = int(n)
        if not isinstance(intervals, np.ndarray):
            intervals = list(intervals)
        #: ``(m, 2)`` int64 array of ``(lo, hi)`` rows (a private copy)
        self._bounds = np.array(intervals, dtype=np.int64)
        if not self._bounds.size:
            raise ValueError("RangeQueries requires at least one interval")
        if self._bounds.ndim != 2 or self._bounds.shape[1] != 2:
            raise ValueError("intervals must be a sequence of (lo, hi) pairs")
        self._lo, self._hi = self._bounds[:, 0], self._bounds[:, 1]
        bad = ~((0 <= self._lo) & (self._lo <= self._hi) & (self._hi < self.n))
        if bad.any():
            lo, hi = self._bounds[np.argmax(bad)].tolist()
            raise ValueError(f"invalid range ({lo}, {hi}) for domain size {self.n}")
        self.intervals = list(zip(self._lo.tolist(), self._hi.tolist()))
        self.shape = (len(self.intervals), self.n)
        self._product = Product(self._difference_matrix(), Prefix(self.n))

    def _difference_matrix(self) -> SparseMatrix:
        """Sparse factor with +1 at column ``hi`` and -1 at column ``lo - 1``.

        Built directly in canonical CSR form: each row holds ``lo - 1`` (when
        ``lo > 0``) then ``hi``, so column indices are sorted within rows.
        """
        inner = self._lo > 0
        indptr = np.zeros(self.shape[0] + 1, dtype=np.int32)
        np.cumsum(1 + inner, out=indptr[1:])
        indices = np.empty(indptr[-1], dtype=np.int32)
        data = np.ones(indptr[-1])
        indices[indptr[1:] - 1] = self._hi
        first = indptr[:-1][inner]
        indices[first] = self._lo[inner] - 1
        data[first] = -1.0
        return SparseMatrix(sp.csr_matrix((data, indices, indptr), shape=self.shape))

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self._product.matvec(v)

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        return self._product.rmatvec(v)

    def _matmat(self, B: np.ndarray) -> np.ndarray:
        return self._product._matmat(B)

    def _rmatmat(self, B: np.ndarray) -> np.ndarray:
        return self._product._rmatmat(B)

    def __abs__(self) -> LinearQueryMatrix:
        return self

    def square(self) -> LinearQueryMatrix:
        return self

    def sensitivity(self) -> float:
        # Column j is covered by every interval containing j: +1 at each lo,
        # -1 just past each hi, cumsummed in exact integer arithmetic.
        starts = np.bincount(self._lo, minlength=self.n + 1)
        ends = np.bincount(self._hi + 1, minlength=self.n + 1)
        return float(np.max(np.cumsum(starts - ends)[: self.n]))

    def dense(self) -> np.ndarray:
        return self.rows(np.arange(self.shape[0]))

    def sparse(self) -> sp.csr_matrix:
        return sp.csr_matrix(self.dense())

    def row(self, i: int) -> np.ndarray:
        lo, hi = self.intervals[i]
        r = np.zeros(self.n)
        r[lo : hi + 1] = 1.0
        return r

    def rows(self, indices, block_size: int = 256) -> np.ndarray:
        # 0/1 indicator rows are written directly from the interval endpoints:
        # a +1/-1 boundary "paintbrush" cumsummed along each row is far cheaper
        # than routing basis vectors through Prefix.
        indices = np.atleast_1d(np.asarray(indices, dtype=np.intp))
        bounds = np.zeros((indices.size, self.n + 1))
        which = np.arange(indices.size)
        bounds[which, self._lo[indices]] = 1.0
        bounds[which, self._hi[indices] + 1] = -1.0
        return np.cumsum(bounds[:, :-1], axis=1)

    def _build_strategy_key(self) -> tuple:
        return ("RangeQueries", self.n, _content_digest(self._bounds))


def hierarchical_bounds(n: int, branching: int = 2) -> np.ndarray:
    """:func:`hierarchical_intervals` as an ``(m, 2)`` array of ``(lo, hi)`` rows."""
    if n <= 0:
        raise ValueError("domain size must be positive")
    if branching < 2:
        raise ValueError("branching factor must be at least 2")
    # Level by level: split every node of a level at once and keep the
    # children longer than one cell.
    levels = []
    level = np.array([[0, n - 1]])
    while True:
        level = level[level[:, 1] > level[:, 0]]
        if not level.size:
            break
        levels.append(level)
        edges = np.linspace(level[:, 0], level[:, 1] + 1, branching + 1, axis=1).astype(int)
        level = np.stack([edges[:, :-1].ravel(), edges[:, 1:].ravel() - 1], axis=1)
    bounds = np.concatenate(levels) if levels else level
    # The depth-first order of a stack that pops the last child first: hi
    # descending, ancestors (smaller lo) before their descendants.
    return bounds[np.lexsort((bounds[:, 0], -bounds[:, 1]))]


def hierarchical_intervals(n: int, branching: int = 2) -> list[tuple[int, int]]:
    """Intervals of a complete ``branching``-ary hierarchy over ``[0, n)``.

    The root covers the whole domain; each node is recursively split into
    ``branching`` nearly-equal children; unit-length leaves are excluded (they
    are supplied by the Identity part of the hierarchical matrix).
    """
    lo, hi = hierarchical_bounds(n, branching).T.tolist()
    return list(zip(lo, hi))


class HierarchicalQueries(LinearQueryMatrix):
    """Hierarchical measurement matrix ``Union(Identity, RangeQueries(tree))``.

    This is the strategy used by the H2 (binary) and HB (optimised branching
    factor) algorithms.
    """

    _binary_valued = True

    def __init__(self, n: int, branching: int = 2):
        self.n = int(n)
        self.branching = int(branching)
        bounds = hierarchical_bounds(self.n, self.branching)
        parts: list[LinearQueryMatrix] = [Identity(self.n)]
        if bounds.size:
            parts.append(RangeQueries(self.n, bounds))
        self._union = VStack(parts)
        self.shape = self._union.shape

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self._union.matvec(v)

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        return self._union.rmatvec(v)

    def _matmat(self, B: np.ndarray) -> np.ndarray:
        return self._union._matmat(B)

    def _rmatmat(self, B: np.ndarray) -> np.ndarray:
        return self._union._rmatmat(B)

    def __abs__(self) -> LinearQueryMatrix:
        return self

    def square(self) -> LinearQueryMatrix:
        return self

    def dense(self) -> np.ndarray:
        return self._union.dense()

    def sparse(self) -> sp.csr_matrix:
        return self._union.sparse()

    def row(self, i: int) -> np.ndarray:
        return self._union.row(i)

    def rows(self, indices, block_size: int = 256) -> np.ndarray:
        return self._union.rows(indices, block_size=block_size)

    def gram_sparse(self) -> sp.csr_matrix:
        return self._union.gram_sparse()

    def gram_nnz_estimate(self) -> int:
        return self._union.gram_nnz_estimate()

    def _build_strategy_key(self) -> tuple:
        return ("Hierarchical", self.n, self.branching)


def optimal_branching_factor(n: int) -> int:
    """HB's heuristic: choose the branching factor minimising tree height cost.

    Qardaji et al. pick the branching factor ``b`` minimising the variance of
    answering range queries from a ``b``-ary hierarchy, approximately the value
    satisfying ``(b - 1) * log_b(n)`` minimal.  We search b in [2, 16].
    """
    n = max(int(n), 2)
    best_b, best_cost = 2, float("inf")
    for b in range(2, 17):
        height = int(np.ceil(np.log(n) / np.log(b)))
        cost = (b - 1) * height**3
        if cost < best_cost:
            best_b, best_cost = b, cost
    return best_b


def grid_intervals_2d(
    rows: int, cols: int, cell_rows: int, cell_cols: int
) -> list[tuple[int, int, int, int]]:
    """Axis-aligned rectangular blocks covering a ``rows x cols`` grid.

    Returns a list of ``(r_lo, r_hi, c_lo, c_hi)`` inclusive rectangles of a
    uniform grid with block size ``cell_rows x cell_cols``.
    """
    rects = []
    for r in range(0, rows, cell_rows):
        for c in range(0, cols, cell_cols):
            rects.append((r, min(r + cell_rows, rows) - 1, c, min(c + cell_cols, cols) - 1))
    return rects


class RangeQueries2D(LinearQueryMatrix):
    """Axis-aligned rectangle queries over a 2-D domain, stored implicitly.

    Each rectangle is the Kronecker-style conjunction of a row range and a
    column range, represented as ``Sparse x Kron(Prefix, Prefix)``.
    """

    _binary_valued = True

    def __init__(self, rows: int, cols: int, rects: Sequence[tuple[int, int, int, int]]):
        self.grid_rows = int(rows)
        self.grid_cols = int(cols)
        self.rects = [tuple(int(v) for v in r) for r in rects]
        if not self.rects:
            raise ValueError("RangeQueries2D requires at least one rectangle")
        for r_lo, r_hi, c_lo, c_hi in self.rects:
            if not (0 <= r_lo <= r_hi < self.grid_rows and 0 <= c_lo <= c_hi < self.grid_cols):
                raise ValueError("rectangle outside the domain")
        n = self.grid_rows * self.grid_cols
        self.shape = (len(self.rects), n)
        self._product = Product(
            self._corner_matrix(), Kronecker([Prefix(self.grid_rows), Prefix(self.grid_cols)])
        )

    def _corner_matrix(self) -> SparseMatrix:
        """2-D inclusion-exclusion corners: four +/-1 entries per rectangle."""
        rows_idx, cols_idx, vals = [], [], []

        def add(i: int, r: int, c: int, val: float) -> None:
            rows_idx.append(i)
            cols_idx.append(r * self.grid_cols + c)
            vals.append(val)

        for i, (r_lo, r_hi, c_lo, c_hi) in enumerate(self.rects):
            add(i, r_hi, c_hi, 1.0)
            if r_lo > 0:
                add(i, r_lo - 1, c_hi, -1.0)
            if c_lo > 0:
                add(i, r_hi, c_lo - 1, -1.0)
            if r_lo > 0 and c_lo > 0:
                add(i, r_lo - 1, c_lo - 1, 1.0)
        mat = sp.csr_matrix((vals, (rows_idx, cols_idx)), shape=self.shape)
        return SparseMatrix(mat)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self._product.matvec(v)

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        return self._product.rmatvec(v)

    def _matmat(self, B: np.ndarray) -> np.ndarray:
        return self._product._matmat(B)

    def _rmatmat(self, B: np.ndarray) -> np.ndarray:
        return self._product._rmatmat(B)

    def __abs__(self) -> LinearQueryMatrix:
        return self

    def square(self) -> LinearQueryMatrix:
        return self

    def dense(self) -> np.ndarray:
        return self.rows(np.arange(self.shape[0]))

    def sparse(self) -> sp.csr_matrix:
        return sp.csr_matrix(self.dense())

    def row(self, i: int) -> np.ndarray:
        r_lo, r_hi, c_lo, c_hi = self.rects[i]
        block = np.zeros((self.grid_rows, self.grid_cols))
        block[r_lo : r_hi + 1, c_lo : c_hi + 1] = 1.0
        return block.ravel()

    def rows(self, indices, block_size: int = 256) -> np.ndarray:
        # Rectangle-indicator rows written directly from the corner coordinates.
        indices = np.atleast_1d(np.asarray(indices, dtype=np.intp))
        out = np.zeros((indices.size, self.grid_rows, self.grid_cols))
        for r, i in enumerate(indices):
            r_lo, r_hi, c_lo, c_hi = self.rects[i]
            out[r, r_lo : r_hi + 1, c_lo : c_hi + 1] = 1.0
        return out.reshape(indices.size, -1)

    def _build_strategy_key(self) -> tuple:
        return (
            "RangeQueries2D",
            self.grid_rows,
            self.grid_cols,
            _content_digest(np.asarray(self.rects)),
        )


def quadtree_rects(rows: int, cols: int, min_size: int = 1) -> list[tuple[int, int, int, int]]:
    """Rectangles of a quadtree decomposition of a 2-D grid.

    The root covers the whole grid; every node is split into four quadrants
    until blocks reach ``min_size`` in both dimensions.
    """
    rects: list[tuple[int, int, int, int]] = []
    frontier = [(0, rows - 1, 0, cols - 1)]
    while frontier:
        r_lo, r_hi, c_lo, c_hi = frontier.pop()
        rects.append((r_lo, r_hi, c_lo, c_hi))
        height = r_hi - r_lo + 1
        width = c_hi - c_lo + 1
        if height <= min_size and width <= min_size:
            continue
        r_mid = r_lo + height // 2
        c_mid = c_lo + width // 2
        children = []
        if height > min_size and width > min_size:
            children = [
                (r_lo, r_mid - 1, c_lo, c_mid - 1),
                (r_lo, r_mid - 1, c_mid, c_hi),
                (r_mid, r_hi, c_lo, c_mid - 1),
                (r_mid, r_hi, c_mid, c_hi),
            ]
        elif height > min_size:
            children = [(r_lo, r_mid - 1, c_lo, c_hi), (r_mid, r_hi, c_lo, c_hi)]
        elif width > min_size:
            children = [(r_lo, r_hi, c_lo, c_mid - 1), (r_lo, r_hi, c_mid, c_hi)]
        for child in children:
            if child[0] <= child[1] and child[2] <= child[3]:
                frontier.append(child)
    return rects
