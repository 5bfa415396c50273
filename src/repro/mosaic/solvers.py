"""Subdomain solvers used inside the Mosaic Flow predictor.

The predictor only requires a component that, given the Dirichlet data on an
atomic subdomain's boundary, predicts the solution at requested interior
points.  Two implementations are provided:

* :class:`SDNetSubdomainSolver` — wraps a trained
  :class:`~repro.models.sdnet.SDNet` (or the concat baseline); this is the
  paper's configuration, where the subdomain solve is a single batched
  network inference — here one compiled program per model and point set
  (:func:`inference_program`), shared by every solver wrapping the model.
* :class:`FDSubdomainSolver` — solves each subdomain exactly with the finite
  difference substrate, as one ``np.einsum`` contraction of the boundary rows
  with the grid's cached boundary-to-field operator (numpy's own loop, not
  BLAS, so a row's bits do not depend on its call).  With this solver the
  Mosaic Flow predictor becomes a classical overlapping Schwarz iteration,
  which is used to validate the predictor's convergence independently of
  training quality and to isolate communication behaviour in the scaling
  benchmarks.

Both share the same interface so they are interchangeable everywhere, and
both make a row's prediction independent of the rows it shares a call with.
Each also states its ``fusion_key()``: servers fuse the solver calls of
geometry groups whose solvers return equal keys (a solver without the
method never fuses).
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict
from typing import Protocol, runtime_checkable

import numpy as np

from ..autodiff.tensor import Tensor
from ..engine.runtime import CompiledModule
from ..fd.grid import Grid2D
from ..fd.solve import laplace_loop_operator
from ..models.base import NeuralSolver
from ..nn.module import Module

__all__ = [
    "SubdomainSolver",
    "SDNetSubdomainSolver",
    "FDSubdomainSolver",
    "GEMM_STABLE_ROWS",
    "inference_program",
]

#: rows per internal forward chunk of :class:`SDNetSubdomainSolver`.  BLAS
#: matmul kernels change regime with the row count (a gemv path at one row,
#: multithreaded blocking past a few dozen), and each regime accumulates in
#: a different order, so the same boundary row can get different low-order
#: bits depending on how many rows share its call.  The products whose row
#: count is the chunk's are the boundary embedding's and the split layer's
#: ``(rows, ·) @ (·, d)`` GEMMs; the point path never sees it — every trunk
#: layer is one ``(q, d) @ (d, d)`` product per row, and the coordinate
#: projection of the (shared) points is a constant of the compiled program.
#: Executing every call as fixed-size chunks inside the grouping-invariant
#: window makes a row's prediction a pure function of (row, points) — the
#: invariant that lets cross-request mega-batching (one
#: :class:`~repro.mosaic.core.LatticeRun` over many sessions) concatenate
#: calls while staying bitwise identical to per-request execution.  It is
#: also the capacity of the compiled programs' bucketed plans, so one plan
#: per thread and point set serves every chunk, whatever its row count.
#:
#: The window is a measurement on the SDNet layer shapes (hidden widths of
#: 24 to 256 columns), not a property of BLAS.  The same rule (chunks of at
#: most 32 rows, singletons padded to two) applied to the FD backend's
#: ``(rows, 32) @ (32, q)`` product left 7 of 16 served solutions bitwise
#: different from their standalone runs, which is why
#: :class:`FDSubdomainSolver` contracts with ``np.einsum`` at its default
#: ``optimize=False``: numpy's own sum-of-products loop, never dispatched to
#: BLAS, whose order per output element does not depend on the row count.
GEMM_STABLE_ROWS = 32

#: distinct query-point sets a solver backend keeps state for — the operator
#: columns of an :class:`FDSubdomainSolver`, the compiled programs of a model
#: — before dropping the oldest (the predictors use two: centre lines and
#: interior)
QUERY_SETS_KEPT = 8


@runtime_checkable
class SubdomainSolver(Protocol):
    """Protocol for atomic-subdomain solvers.

    ``predict(boundaries, points)`` receives a batch of boundary loops of
    shape ``(B, 4N)`` and local query coordinates of shape ``(q, 2)`` (shared
    by every subdomain in the batch) and returns predictions of shape
    ``(B, q)``.
    """

    #: number of samples in a subdomain boundary loop
    boundary_size: int

    def predict(self, boundaries: np.ndarray, points: np.ndarray) -> np.ndarray:
        ...


class _SharedPointsForward(Module):
    """``g -> model(g, x)`` for one point set ``x`` shared by every row of ``g``.

    The points are a constant of the traced program, so the compiler folds
    what depends on them alone: for an SDNet the coordinate projection
    ``X @ W2^T`` of eq. 8, computed once per point set instead of once per
    boundary row.  The model is held weakly — the programs live exactly as
    long as their model (:func:`inference_program`).
    """

    def __init__(self, model: NeuralSolver, points: np.ndarray):
        super().__init__()
        self._model = weakref.ref(model)
        self._points = Tensor(points[None].copy())

    def named_parameters(self, prefix: str = ""):
        return self._model().named_parameters(prefix)

    def forward(self, g: Tensor) -> Tensor:
        model = self._model()
        if hasattr(model, "forward_from_embedding"):
            # No broadcast of the points over the rows: ``(rows, 1, d)`` plus
            # the folded ``(1, q, d)`` is the same sum, element by element.
            return model.forward_from_embedding(model.embed_boundary(g), self._points)
        return model(g, self._points)


class _Programs:
    """Compiled inference programs by point set, oldest dropped first."""

    def __init__(self):
        self.by_points: "OrderedDict[bytes, CompiledModule]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, model: NeuralSolver, points: np.ndarray) -> CompiledModule:
        key = points.tobytes()
        program = self.by_points.get(key)
        if program is None:
            with self._lock:
                program = self.by_points.get(key)
                if program is None:
                    while len(self.by_points) >= QUERY_SETS_KEPT:
                        self.by_points.popitem(last=False)
                    # Strict: a forward the bucket templates cannot express
                    # is an error here, not a plan per row count.
                    program = self.by_points[key] = CompiledModule(
                        _SharedPointsForward(model, points),
                        copy_outputs=False,
                        bucket_rows=GEMM_STABLE_ROWS, strict_buckets=True,
                    )
        return program


_PROGRAMS: "weakref.WeakKeyDictionary[NeuralSolver, _Programs]" = (
    weakref.WeakKeyDictionary()
)
_PROGRAMS_LOCK = threading.Lock()


def _fresh_locks_after_fork() -> None:
    # A forked child (a serving worker's compute process) runs the programs it
    # inherited; the parent threads that held their locks do not exist there.
    global _PROGRAMS_LOCK
    _PROGRAMS_LOCK = threading.Lock()
    for programs in list(_PROGRAMS.values()):
        programs._lock = threading.Lock()
        for program in programs.by_points.values():
            program._lock = threading.Lock()
            program._counters.lock = threading.Lock()


os.register_at_fork(after_in_child=_fresh_locks_after_fork)


def inference_program(model: NeuralSolver, points: np.ndarray) -> CompiledModule:
    """The compiled ``(rows, 4N) -> (rows, q)`` forward of ``model`` at ``points``.

    One program per model and point set (keyed by the points' bytes, so a
    caller that rewrites its array gets the new contents' answer), owned by
    the model and shared by every solver, worker thread and server wrapping
    it; at most :data:`QUERY_SETS_KEPT` per model, oldest dropped first.  A
    program is traced three times on first use and never again, whatever row
    counts it meets (see :class:`~repro.engine.runtime.CompiledModule`); its
    outputs alias per-thread plan buffers until the thread's next call.
    """

    programs = _PROGRAMS.get(model)
    if programs is None:
        with _PROGRAMS_LOCK:
            programs = _PROGRAMS.setdefault(model, _Programs())
    return programs.get(model, points)


class SDNetSubdomainSolver:
    """Neural subdomain solver backed by a trained model.

    Every forward pass runs through the model's compiled inference program
    for the query points (:func:`inference_program`); the predictions are
    bitwise those of the eager ``model(g, x)`` forward with the points
    repeated for every row, which is the oracle the tests keep.

    Parameters
    ----------
    model:
        A :class:`~repro.models.base.NeuralSolver` trained on the subdomain
        BVP (boundary loops of length ``model.boundary_size``).
    max_batch:
        Optional cap on the number of subdomains evaluated per forward call;
        larger batches are split internally.  This mirrors the memory limit
        that determines the maximum feasible batch size in Figure 5.
    """

    def __init__(self, model: NeuralSolver, max_batch: int | None = None):
        self.model = model
        self.boundary_size = int(model.boundary_size)
        self.max_batch = max_batch
        self.inference_calls = 0
        self.points_evaluated = 0

    def fusion_key(self) -> tuple:
        """Equal for solvers on the same model object with the same batch cap."""

        return ("sdnet", id(self.model), self.max_batch)

    def predict(self, boundaries: np.ndarray, points: np.ndarray) -> np.ndarray:
        boundaries = np.asarray(boundaries, dtype=float)
        points = np.asarray(points, dtype=float)
        if boundaries.ndim != 2 or boundaries.shape[1] != self.boundary_size:
            raise ValueError(
                f"boundaries must have shape (B, {self.boundary_size}), got {boundaries.shape}"
            )
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError("points must have shape (q, 2)")
        batch = boundaries.shape[0]
        q = points.shape[0]
        out = np.empty((batch, q))
        step = batch if self.max_batch is None else max(int(self.max_batch), 1)
        step = min(max(step, 1), GEMM_STABLE_ROWS)
        forward = inference_program(self.model, points).predict
        for start in range(0, batch, step):
            stop = min(start + step, batch)
            rows = boundaries[start:stop]
            # BLAS dispatches single-row matmuls to a gemv kernel whose
            # summation order differs from the batched gemm path, so a
            # row's bits would depend on how many rows share its call.
            # Pad singleton chunks to two rows so every row takes the
            # gemm path regardless of batch size -- the invariant that
            # lets cross-request mega-batching stay bitwise identical to
            # per-request execution.
            padded = rows.shape[0] == 1
            if padded:
                rows = np.concatenate([rows, rows], axis=0)
            data = forward(rows)
            out[start:stop] = data[:1] if padded else data
            self.inference_calls += 1
            self.points_evaluated += (stop - start) * q
        return out


class FDSubdomainSolver:
    """Exact finite-difference subdomain solver (classical-Schwarz reference).

    The discrete Laplace solution is linear in the Dirichlet loop, so a call
    is one contraction of the boundary rows with the cached boundary-to-field
    operator of the grid (:func:`repro.fd.solve.laplace_loop_operator`, built
    once per grid and method and shared by every solver instance); nothing is
    assembled or factorised per row.  The contraction is one
    ``np.einsum("bk,kq->bq")`` over C-contiguous operands, which numpy runs
    without BLAS with the boundary index ``k`` outermost: each output element
    is accumulated in boundary order by a separate multiply and add, so a
    row's prediction is a pure function of ``(row, points)`` however rows are
    grouped into calls.  The operator columns of a query-point set are kept,
    contiguous, per distinct set (keyed by the points' bytes, so a caller
    that rewrites its array gets the new contents' answer); the points are
    validated whenever a set is not in that small cache.

    Parameters
    ----------
    subdomain_grid:
        The local grid of one atomic subdomain.
    method:
        Solver method forwarded to :func:`repro.fd.solve.solve_laplace_from_loop`
        when the operator is built.
    """

    def __init__(self, subdomain_grid: Grid2D, method: str = "direct"):
        self.grid = subdomain_grid
        self.method = method
        self.boundary_size = subdomain_grid.boundary_size
        #: boundary rows solved (one per row, however rows share calls)
        self.inference_calls = 0
        self.points_evaluated = 0
        self._weights: dict[bytes, np.ndarray] = {}

    def fusion_key(self) -> tuple:
        """Equal for solvers of the same exact finite-difference configuration."""

        grid = self.grid
        return ("fd", grid.nx, grid.ny, tuple(grid.extent), self.method)

    def _point_indices(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map local physical coordinates to grid indices (must lie on grid points)."""

        cols = points[:, 0] / self.grid.hx
        rows = points[:, 1] / self.grid.hy
        col_idx = np.rint(cols).astype(int)
        row_idx = np.rint(rows).astype(int)
        if np.any(np.abs(cols - col_idx) > 1e-6) or np.any(np.abs(rows - row_idx) > 1e-6):
            raise ValueError("FDSubdomainSolver only supports queries at grid points")
        if (
            np.any(col_idx < 0)
            or np.any(col_idx >= self.grid.nx)
            or np.any(row_idx < 0)
            or np.any(row_idx >= self.grid.ny)
        ):
            raise ValueError("query point outside the subdomain grid")
        return row_idx, col_idx

    def predict(self, boundaries: np.ndarray, points: np.ndarray) -> np.ndarray:
        # einsum picks its loop order from the operands' strides (see the
        # operator columns below); contiguous rows keep the caller's layout
        # out of it.
        boundaries = np.ascontiguousarray(boundaries, dtype=float)
        points = np.asarray(points, dtype=float)
        if boundaries.ndim != 2 or boundaries.shape[1] != self.boundary_size:
            raise ValueError(
                f"boundaries must have shape (B, {self.boundary_size}), got {boundaries.shape}"
            )
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError("points must have shape (q, 2)")
        key = points.tobytes()
        weights = self._weights.get(key)
        if weights is None:
            rows, cols = self._point_indices(points)
            # The fancy-indexed slice is a strided (boundary_size, q) view of
            # a (q, boundary_size) block.  einsum would then loop over ``k``
            # innermost and sum in another order: every call tried (1 to
            # 4,000 rows) differed in some elements from the per-column
            # accumulation, and serve_fd_burst's solution_mae moved
            # (...342064 -> ...342781).  Contiguous columns keep ``k``
            # outermost and the bytes of that loop.
            weights = np.ascontiguousarray(
                laplace_loop_operator(self.grid, self.method)[:, rows, cols]
            )
            # Single dict operations, so threads sharing the solver need no
            # lock: a reader hits or misses, and a miss only recomputes.
            if len(self._weights) >= QUERY_SETS_KEPT:
                self._weights.clear()
            self._weights[key] = weights
        # Not ``boundaries @ weights``: BLAS picks its kernel, and with it the
        # summation order, from the row count (see GEMM_STABLE_ROWS).
        out = np.einsum("bk,kq->bq", boundaries, weights)
        self.inference_calls += boundaries.shape[0]
        self.points_evaluated += out.size
        return out
