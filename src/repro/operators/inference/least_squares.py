"""Least-squares inference operators (Sec. 5.5 and 7.6).

Given a measurement matrix ``M`` (possibly implicit) and noisy answers ``y``,
ordinary least squares finds ``x̂ = argmin_x ||M x - y||_2``.  Optional
per-query weights account for measurements taken with different noise scales
(rows are scaled by ``w_i`` before solving, which is equivalent to weighted
least squares with weights ``w_i^2``).

Four solution strategies are provided:

* ``method="direct"`` — dense factorisation of the materialised matrix; cubic
  in the larger dimension, only viable for small problems (used as the
  baseline in the Fig. 5 scalability experiment).
* ``method="lsmr"`` (default) — scipy's iterative LSMR solver driven purely by
  matvec/rmatvec, so it runs on implicit matrices without materialisation.
* ``method="normal"`` — solve the normal equations ``(M.T M) x = M.T y`` with
  the blocked vectorized :meth:`~repro.matrix.base.LinearQueryMatrix.gram_dense`
  kernel.  For the common tall-skinny measurement case (``m >> n``) this is
  dramatically faster than both alternatives, and the ``n x n`` Gram matrix is
  data-independent, so it can be cached and shared across requests via the
  service's :class:`~repro.service.artifact_cache.ArtifactCache` (pass
  ``gram_cache``/``gram_key``).
* ``method="auto"`` — picks ``"normal"`` for tall-skinny problems with a
  moderate domain, ``"lsmr"`` otherwise.

``answers`` may also be an ``(m, s)`` block: one system with ``s`` right-hand
sides, solved for an ``(n, s)`` estimate (striped plans stack every stripe
that shares a strategy into one block).  ``"normal"`` and ``"direct"`` solve
all columns against one factorisation; ``"lsmr"`` runs one solve per column.
Because the factorisation is then amortised across columns, ``"auto"`` treats
a block with ``s >= 2`` like a supplied ``gram_cache`` and takes the normal
equations from square systems (``m >= n``) upward, within the same
``_AUTO_NORMAL_MAX_DOMAIN`` bound.

The Gram products, factorisations, triangular solves and residual norms are
BLAS calls, and OpenBLAS sums in a different order at different thread
counts, so estimates can differ in their last bits between thread counts.
The service runs every plan on one BLAS thread
(:func:`repro.service.single_blas_thread`); wrap a stand-alone run in the
same scope to reproduce its answers bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Protocol

import numpy as np
from scipy import sparse as sp
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse.linalg import factorized, lsmr

from ...matrix import LinearQueryMatrix, ensure_matrix
from ...matrix.combinators import VStack
from ...telemetry.spans import trace_span


class SupportsGetOrBuild(Protocol):
    """Anything with an ``ArtifactCache``-style ``get_or_build`` method."""

    def get_or_build(self, key: Hashable, builder): ...


#: ``method="auto"`` switches to the normal equations when the measurement
#: matrix has at least this many rows per column ...
_AUTO_NORMAL_ASPECT = 2.0
#: ... and no more than this many columns (the Gram solve is O(n^3)).
_AUTO_NORMAL_MAX_DOMAIN = 4096


@dataclass
class InferenceResult:
    """Estimated data vector plus solver diagnostics.

    For an ``(m, s)`` answer block ``x_hat`` is ``(n, s)``, ``iterations``
    sums over the columns and ``residual_norm`` is the Frobenius norm of the
    whole residual block.
    """

    x_hat: np.ndarray
    iterations: int
    residual_norm: float


@dataclass
class NormalEquations:
    """Cached normal-equations artifact: the Gram matrix and its factorisation.

    Both depend only on the (public) measurement strategy and weights, never on
    the noisy answers, so the artifact is data-independent and safe to share
    across requests and tenants through the service's ``ArtifactCache``.

    ``gram`` is either a dense ndarray (factorised with Cholesky, ``cho``) or a
    scipy CSR matrix (factorised with a sparse LU via
    ``scipy.sparse.linalg.factorized``, ``lu``), whichever
    :meth:`~repro.matrix.base.LinearQueryMatrix.gram_auto` decided fits the
    strategy's structure.  When the Gram is singular (rank-deficient
    measurements) both factorisations are ``None`` and solves fall back to the
    minimum-norm pseudo-inverse solution.
    """

    gram: np.ndarray | sp.spmatrix
    cho: tuple | None
    lu: Callable[[np.ndarray], np.ndarray] | None = None

    @property
    def is_sparse(self) -> bool:
        return sp.issparse(self.gram)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``gram @ x = rhs`` for a vector or a stack of columns.

        A non-finite ``rhs`` raises ``ValueError``.  The factor itself was
        checked once in :func:`build_normal_equations`, so the Cholesky solve
        skips scipy's per-call scan of it.  A stack of columns is one
        triangular solve against the factor.
        """
        rhs = np.asarray_chkfinite(rhs)
        if self.cho is not None:
            return cho_solve(self.cho, rhs, check_finite=False)
        if self.lu is not None:
            if rhs.ndim == 2:
                try:
                    return np.asarray(self.lu(rhs))
                except Exception:
                    # umfpack-backed factorized() solves only accept 1-D
                    # right-hand sides; fall back to one solve per column.
                    return np.stack(
                        [self.lu(rhs[:, j]) for j in range(rhs.shape[1])], axis=1
                    )
            return self.lu(rhs)
        gram = self.gram.toarray() if sp.issparse(self.gram) else self.gram
        return np.linalg.lstsq(gram, rhs, rcond=None)[0]


def build_normal_equations(
    queries: LinearQueryMatrix, prefer: str = "auto"
) -> NormalEquations:
    """Materialise ``M.T M`` and factorise it, exploiting sparsity when it fits.

    ``prefer`` is ``"auto"`` (let the strategy's structural nnz estimate pick
    the representation), ``"sparse"`` (force CSR + sparse LU) or ``"dense"``
    (force the blocked dense Gram kernel + Cholesky).
    """
    with trace_span(
        "solve.build_normal_equations",
        prefer=prefer,
        rows=int(queries.shape[0]),
        cols=int(queries.shape[1]),
    ) as span:
        if prefer == "auto":
            gram = queries.gram_auto()
        elif prefer == "sparse":
            gram = queries.gram_sparse()
        elif prefer == "dense":
            gram = queries.gram_dense()
        else:
            raise ValueError(f"unknown Gram preference {prefer!r}")
        if sp.issparse(gram):
            gram = gram.tocsr()
        # Checked once here so every later solve can skip the scan.
        if not np.isfinite(gram.data if sp.issparse(gram) else gram).all():
            raise ValueError("Gram matrix has non-finite entries")
        if sp.issparse(gram):
            try:
                lu = factorized(gram.tocsc())
            except RuntimeError:
                # Exactly singular: solves fall back to the pseudo-inverse.
                lu = None
            span.set_attributes(gram_kind="sparse", gram_nnz=int(gram.nnz))
            return NormalEquations(gram, cho=None, lu=lu)
        try:
            cho = cho_factor(gram, check_finite=False)
        except np.linalg.LinAlgError:
            cho = None
        span.set_attribute("gram_kind", "dense")
        return NormalEquations(gram, cho)


def _apply_weights(
    queries: LinearQueryMatrix, answers: np.ndarray, weights: np.ndarray | None
) -> tuple[LinearQueryMatrix, np.ndarray, float]:
    """Fold per-query weights into the system.

    Returns ``(queries, answers, uniform_scale)``.  Non-uniform weights are
    folded in as a diagonal row scaling (``uniform_scale`` is 1.0).  Exactly
    uniform weights leave the system untouched and return the common weight as
    ``uniform_scale`` instead: the minimiser is invariant under a uniform row
    scaling, so solvers can keep sharing strategy-keyed Gram artifacts across
    noise scales — but they must multiply reported residual norms by
    ``uniform_scale`` so the units match the non-uniform case.
    """
    answers = np.asarray(answers, dtype=np.float64)
    if weights is None:
        return queries, answers, 1.0
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (queries.shape[0],):
        raise ValueError("weights must have one entry per query")
    if not np.any(weights):
        # All-zero weights erase every equation; a silent unweighted solve
        # (the old shortcut's behaviour) would claim a residual it never saw.
        raise ValueError("weights must not be all zero")
    if np.allclose(weights, weights[0]):
        # abs(): the residual scale is a norm factor, so a (pathological)
        # uniform negative weight must not flip residual_norm's sign.
        return queries, answers, abs(float(weights[0]))
    from ...matrix.dense import SparseMatrix

    diag = SparseMatrix(sp.diags(weights))
    from ...matrix.combinators import Product

    # Transposes broadcast the row weights over every column of a block.
    return Product(diag, queries), (weights * answers.T).T, 1.0


def least_squares(
    queries: LinearQueryMatrix,
    answers: np.ndarray,
    weights: np.ndarray | None = None,
    method: str = "lsmr",
    max_iterations: int | None = None,
    tolerance: float = 1e-8,
    gram_cache: SupportsGetOrBuild | None = None,
    gram_key: Hashable | None = None,
) -> InferenceResult:
    """Ordinary least-squares estimate of the data vector.

    Parameters
    ----------
    queries:
        The measurement matrix ``M`` (any :class:`LinearQueryMatrix`).
    answers:
        Noisy answers ``y`` with one entry per row of ``M``, or an ``(m, s)``
        block of ``s`` right-hand sides solved together (``x_hat`` is then
        ``(n, s)``).
    weights:
        Optional per-query weights (inverse noise scales).
    method:
        ``"lsmr"`` (iterative, works on implicit matrices), ``"direct"``
        (dense factorisation), ``"normal"`` (dense normal equations through the
        vectorized Gram kernel), or ``"auto"`` (normal for tall-skinny
        problems, or square-or-taller ones when the factorisation is
        amortised by a ``gram_cache`` or a block of ``s >= 2`` columns; lsmr
        otherwise).
    max_iterations:
        Iteration cap for the lsmr solver.  ``None`` (the only sentinel) means
        "use the default of ``max(2n, 100)``"; an explicit ``0`` is honoured
        and returns the zero vector after no iterations.
    gram_cache / gram_key:
        Optional cache (anything with an ``ArtifactCache``-style
        ``get_or_build``) for the ``method="normal"`` Gram matrix.  The key
        must uniquely identify the *weighted* measurement matrix — the Gram is
        data-independent but does depend on the weights, so include them (or a
        digest of them) in the key when they vary.  When ``gram_cache`` is
        given and ``gram_key`` is ``None``, the key is derived automatically
        from the weighted matrix's canonical
        :meth:`~repro.matrix.base.LinearQueryMatrix.strategy_key`, so equal
        strategies share one factorisation without the caller inventing keys.
    """
    queries = ensure_matrix(queries)
    answers = np.asarray(answers, dtype=np.float64)
    block = answers.ndim == 2
    if answers.ndim not in (1, 2) or answers.shape[0] != queries.shape[0] or (
        block and answers.shape[1] == 0
    ):
        raise ValueError(
            f"answers of shape {answers.shape} do not match {queries.shape[0]} queries"
        )
    # ``scale`` is a uniform row weight left out of the solve (the minimiser
    # is invariant, and keeping the system unscaled lets equal strategies
    # share one cached Gram across noise scales); residual norms are
    # multiplied back so they are always reported in weighted units.
    queries, answers, scale = _apply_weights(queries, answers, weights)

    if method == "auto":
        m, n = queries.shape
        # With a shared Gram cache the factorisation amortises across
        # requests, and with several right-hand sides across columns, so
        # normal equations win from square systems (m >= n) upward; without
        # either they must beat LSMR on a single cold solve, which takes the
        # tall-skinny aspect.
        amortised = gram_cache is not None or (block and answers.shape[1] >= 2)
        aspect = 1.0 if amortised else _AUTO_NORMAL_ASPECT
        tall_skinny = m >= aspect * n and n <= _AUTO_NORMAL_MAX_DOMAIN
        method = "normal" if tall_skinny else "lsmr"

    with trace_span(
        "solve.least_squares",
        method=method,
        rows=int(queries.shape[0]),
        cols=int(queries.shape[1]),
        rhs=int(answers.shape[1]) if block else 1,
    ) as span:
        if method == "direct":
            dense = queries.dense()
            x_hat, residuals, _, _ = np.linalg.lstsq(dense, answers, rcond=None)
            residual = scale * float(np.linalg.norm(dense @ x_hat - answers))
            span.set_attributes(iterations=1, residual_norm=residual)
            return InferenceResult(x_hat, iterations=1, residual_norm=residual)
        if method == "normal":
            if gram_cache is not None:
                if gram_key is None:
                    gram_key = queries.strategy_key()
                # The builder only runs on a miss, so an empty flag list after
                # get_or_build means the factorisation came from the cache —
                # works for any SupportsGetOrBuild, not just ArtifactCache.
                built: list[bool] = []

                def _build():
                    built.append(True)
                    return build_normal_equations(queries)

                normal = gram_cache.get_or_build(("least_squares_gram", gram_key), _build)
                span.set_attribute("gram_cache_hit", not built)
            else:
                normal = build_normal_equations(queries)
            if block:
                x_hat = normal.solve(queries.rmatmat(answers))
                fitted = queries.matmat(x_hat)
            else:
                x_hat = normal.solve(queries.rmatvec(answers))
                fitted = queries.matvec(x_hat)
            residual = scale * float(np.linalg.norm(fitted - answers))
            span.set_attributes(iterations=1, residual_norm=residual)
            return InferenceResult(np.asarray(x_hat), iterations=1, residual_norm=residual)
        if method != "lsmr":
            raise ValueError(f"unknown least-squares method {method!r}")

        operator = queries.as_linear_operator()
        if max_iterations is None:
            max_iterations = max(2 * queries.shape[1], 100)
        # LSMR has no block form: a block is solved one column at a time.
        columns = answers.T if block else [answers]
        solutions = [
            lsmr(operator, y, atol=tolerance, btol=tolerance, maxiter=max_iterations)
            for y in columns
        ]
        x_hat = np.stack([sol[0] for sol in solutions], axis=1) if block else solutions[0][0]
        iterations = sum(int(sol[2]) for sol in solutions)
        norms = np.array([sol[3] for sol in solutions])
        residual = scale * float(np.linalg.norm(norms) if block else norms[0])
        span.set_attributes(iterations=iterations, residual_norm=residual)
        return InferenceResult(np.asarray(x_hat), iterations=iterations, residual_norm=residual)


def least_squares_from_parts(
    parts: list[tuple[LinearQueryMatrix, np.ndarray, float]],
    method: str = "lsmr",
    gram_cache: SupportsGetOrBuild | None = None,
    gram_key: Hashable | None = None,
) -> InferenceResult:
    """Global least squares over measurements collected from different plan steps.

    ``parts`` is a list of ``(M_i, y_i, noise_scale_i)`` triples, all expressed
    over the *same* data vector (use partition expansion to map measurements on
    reduced domains back to the original domain first).  Each part is weighted
    by the inverse of its noise scale so noisier measurements count less.

    ``gram_cache``/``gram_key`` are forwarded to :func:`least_squares`; with a
    cache and no explicit key, the key derives from the *weighted* stack's
    canonical strategy key, so repeated multi-step plans on the same strategy
    and noise split share one normal-equations factorisation.
    """
    if not parts:
        raise ValueError("at least one measurement part is required")
    matrices = []
    answers = []
    weights = []
    for matrix, y, scale in parts:
        matrix = ensure_matrix(matrix)
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (matrix.shape[0],):
            raise ValueError("answers do not match the measurement matrix")
        matrices.append(matrix)
        answers.append(y)
        weights.append(np.full(matrix.shape[0], 1.0 / max(scale, 1e-12)))
    stacked = matrices[0] if len(matrices) == 1 else VStack(matrices)
    return least_squares(
        stacked,
        np.concatenate(answers),
        weights=np.concatenate(weights),
        method=method,
        gram_cache=gram_cache,
        gram_key=gram_key,
    )
