"""Workload-adaptive hierarchical query selection (Greedy-H) and 2-D strategies.

Greedy-H (from the DAWA paper, Li et al. 2014) builds a binary hierarchy whose
per-level measurement weights are tuned to the workload: levels whose
intervals are used by many workload queries receive more budget.  We implement
the standard decomposition of each workload range into canonical dyadic
intervals and allocate weights proportional to the cube root of usage, the
optimal allocation for independent Laplace measurements combined by least
squares.

The 2-D strategies (Quadtree, UniformGrid, AdaptiveGrid) follow Cormode et al.
2012 and Qardaji et al. 2013.
"""

from __future__ import annotations

import numpy as np

from ...matrix import (
    Identity,
    LinearQueryMatrix,
    RangeQueries,
    RangeQueries2D,
    VStack,
    Weighted,
    quadtree_rects,
)
from ...matrix.ranges import hierarchical_bounds


def _dyadic_decomposition(lo: int, hi: int, n: int) -> list[tuple[int, int]]:
    """Decompose the inclusive range [lo, hi] into maximal dyadic intervals."""
    pieces = []
    position = lo
    while position <= hi:
        # Largest power-of-two block aligned at `position` and fitting in the range.
        size = position & -position if position > 0 else n
        while position + size - 1 > hi or size > n:
            size //= 2
        size = max(size, 1)
        pieces.append((position, position + size - 1))
        position += size
    return pieces


def greedy_h_select(
    n: int, workload_intervals: list[tuple[int, int]] | None = None
) -> LinearQueryMatrix:
    """Greedy-H: a binary hierarchy with workload-tuned per-level weights (Plan #5).

    Parameters
    ----------
    n:
        Domain size.
    workload_intervals:
        The ``(lo, hi)`` ranges of the target workload.  If omitted, all range
        queries are assumed equally likely and the weights fall back to the
        H2-style uniform allocation.
    """
    bounds = hierarchical_bounds(n, branching=2)
    lengths = bounds[:, 1] - bounds[:, 0] + 1
    level_sizes = sorted(set(lengths.tolist()), reverse=True)
    usage = {size: 1.0 for size in level_sizes}
    usage[1] = 1.0  # unit-count level (the Identity part)

    if workload_intervals:
        for size in usage:
            usage[size] = 0.0
        for lo, hi in workload_intervals:
            for d_lo, d_hi in _dyadic_decomposition(lo, hi, n):
                usage[d_hi - d_lo + 1] = usage.get(d_hi - d_lo + 1, 0.0) + 1.0
        for size in list(usage):
            usage[size] = max(usage[size], 1e-3)

    # Optimal budget split across independent levels ~ usage^(1/3); weights are
    # normalised so the strategy's sensitivity stays comparable to H2's.
    weights = {size: float(value) ** (1.0 / 3.0) for size, value in usage.items()}
    mean_weight = np.mean(list(weights.values()))
    weights = {size: value / mean_weight for size, value in weights.items()}

    parts: list[LinearQueryMatrix] = [Weighted(Identity(n), weights.get(1, 1.0))]
    for size in level_sizes:
        level = bounds[lengths == size]
        parts.append(Weighted(RangeQueries(n, level), weights.get(size, 1.0)))
    return VStack(parts)


def quadtree_select(rows: int, cols: int, min_size: int = 1) -> LinearQueryMatrix:
    """Quadtree strategy over a 2-D domain (Plan #10)."""
    return RangeQueries2D(rows, cols, quadtree_rects(rows, cols, min_size=min_size))


def uniform_grid_select(
    rows: int, cols: int, total_estimate: float, epsilon: float, c: float = 10.0
) -> LinearQueryMatrix:
    """UniformGrid strategy (Plan #11): one flat grid of block counts.

    The grid granularity follows Qardaji et al.: the number of blocks per axis
    is ``sqrt(N * eps / c)``, clipped to the domain.
    """
    blocks_per_axis = int(np.sqrt(max(total_estimate, 1.0) * epsilon / c))
    blocks_per_axis = int(np.clip(blocks_per_axis, 1, min(rows, cols)))
    cell_rows = int(np.ceil(rows / blocks_per_axis))
    cell_cols = int(np.ceil(cols / blocks_per_axis))
    rects = []
    for r in range(0, rows, cell_rows):
        for c_lo in range(0, cols, cell_cols):
            rects.append((r, min(r + cell_rows, rows) - 1, c_lo, min(c_lo + cell_cols, cols) - 1))
    return RangeQueries2D(rows, cols, rects)


def adaptive_grid_select(
    region: tuple[int, int, int, int],
    rows: int,
    cols: int,
    noisy_region_count: float,
    epsilon: float,
    c2: float = 5.0,
) -> LinearQueryMatrix | None:
    """AdaptiveGrid second-level strategy for one first-level region (Plan #12).

    Given the noisy count of a coarse region, choose the granularity of the
    finer grid inside it (``sqrt(count * eps / c2)`` blocks per axis).  Returns
    ``None`` when the region is too sparse to warrant further measurement —
    the caller then keeps the coarse estimate.
    """
    r_lo, r_hi, c_lo, c_hi = region
    height = r_hi - r_lo + 1
    width = c_hi - c_lo + 1
    blocks = int(np.sqrt(max(noisy_region_count, 0.0) * epsilon / c2))
    if blocks <= 1:
        return None
    blocks = min(blocks, min(height, width))
    cell_rows = int(np.ceil(height / blocks))
    cell_cols = int(np.ceil(width / blocks))
    rects = []
    for r in range(r_lo, r_hi + 1, cell_rows):
        for c in range(c_lo, c_hi + 1, cell_cols):
            rects.append((r, min(r + cell_rows - 1, r_hi), c, min(c + cell_cols - 1, c_hi)))
    return RangeQueries2D(rows, cols, rects)
