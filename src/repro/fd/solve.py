"""High-level Dirichlet Laplace / Poisson solvers.

These are the reproduction's stand-in for pyAMG in the paper's data
generation pipeline (Section 5.1): given a grid and boundary data they return
the full-field solution, choosing a direct sparse factorization for small
problems and geometric multigrid for large ones.
"""

from __future__ import annotations

import functools
import os
import threading

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .discretize import laplacian_matrix, poisson_rhs
from .grid import Grid2D
from .krylov import conjugate_gradient
from .multigrid import GeometricMultigrid

__all__ = [
    "solve_poisson",
    "solve_laplace",
    "solve_laplace_from_loop",
    "laplace_loop_operator",
]

#: interior-unknown count above which multigrid is preferred over a direct
#: solve; direct-solve matrices up to this size are cached, see
#: ``_MATRIX_CACHE_ENTRIES``
_DIRECT_SOLVE_LIMIT = 20_000

#: matrices :func:`_direct_matrix` keeps, least recently used evicted first.
#: One is ~12 bytes per nonzero, 5 nonzeros per unknown: 3 KB on a 9x9 grid,
#: 1.2 MB at ``_DIRECT_SOLVE_LIMIT``.
_MATRIX_CACHE_ENTRIES = 8

#: operators :func:`laplace_loop_operator` keeps, least recently used evicted
#: first.  One operator is ``boundary_size * ny * nx * 8`` bytes: 20 KB on a
#: 9x9 grid, 1.1 MB on 33x33, so the cache stays under 10 MB at those sizes.
_OPERATOR_CACHE_ENTRIES = 8
_operator_lock = threading.Lock()


def _fresh_operator_lock() -> None:
    # In a forked child: the parent thread that held the lock does not exist.
    global _operator_lock
    _operator_lock = threading.Lock()


os.register_at_fork(after_in_child=_fresh_operator_lock)


def solve_poisson(
    grid: Grid2D,
    forcing: np.ndarray | float = 0.0,
    boundary_field: np.ndarray | None = None,
    method: str = "auto",
    tol: float = 1e-10,
) -> np.ndarray:
    """Solve ``-Laplace(u) = f`` with Dirichlet data, returning the full field.

    Parameters
    ----------
    grid:
        Discretization grid.
    forcing:
        Scalar or full-grid array of ``f`` values.
    boundary_field:
        Full-grid array whose boundary ring contains the Dirichlet values.
    method:
        ``"auto"`` (direct for small systems, multigrid otherwise),
        ``"direct"``, ``"multigrid"`` or ``"cg"``.  Direct solves on grids
        of at most ``_DIRECT_SOLVE_LIMIT`` unknowns share one cached,
        read-only matrix per ``(nx, ny, extent)``.
    """

    b = poisson_rhs(grid, forcing, boundary_field)
    n = b.size
    if method == "auto":
        method = "direct" if n <= _DIRECT_SOLVE_LIMIT else "multigrid"

    if method == "direct":
        if n <= _DIRECT_SOLVE_LIMIT:
            A = _direct_matrix(grid.nx, grid.ny, tuple(grid.extent))
        else:
            A = laplacian_matrix(grid).tocsc()
        interior = spla.spsolve(A, b)
    elif method == "multigrid":
        mg = GeometricMultigrid(laplacian_matrix(grid), (grid.ny - 2, grid.nx - 2))
        interior, info = mg.solve(b, tol=tol)
        if not info["converged"]:
            raise RuntimeError(
                f"multigrid failed to converge: residual={info['residual']:.3e}"
            )
    elif method == "cg":
        interior, info = conjugate_gradient(laplacian_matrix(grid), b, tol=tol)
        if not info["converged"]:
            raise RuntimeError(f"CG failed to converge: residual={info['residual']:.3e}")
    else:
        raise ValueError("method must be 'auto', 'direct', 'multigrid' or 'cg'")

    field = np.zeros(grid.shape)
    if boundary_field is not None:
        mask = grid.boundary_mask()
        field[mask] = np.asarray(boundary_field, dtype=float)[mask]
    field[1:-1, 1:-1] = interior.reshape(grid.ny - 2, grid.nx - 2)
    return field


@functools.lru_cache(maxsize=_MATRIX_CACHE_ENTRIES)
def _direct_matrix(nx: int, ny: int, extent: tuple[float, float]) -> sp.csc_matrix:
    # Read-only CSC Laplacian shared by every direct solve on one grid (the
    # origin does not enter the matrix).  No lock: two threads that miss
    # together build equal matrices and the cache keeps one.
    matrix = laplacian_matrix(Grid2D(nx, ny, extent)).tocsc()
    for array in (matrix.data, matrix.indices, matrix.indptr):
        array.setflags(write=False)
    return matrix


def solve_laplace(
    grid: Grid2D,
    boundary_field: np.ndarray,
    method: str = "auto",
    tol: float = 1e-10,
) -> np.ndarray:
    """Solve the Laplace equation with Dirichlet boundary data."""

    return solve_poisson(grid, 0.0, boundary_field, method=method, tol=tol)


def solve_laplace_from_loop(
    grid: Grid2D,
    boundary_loop: np.ndarray,
    method: str = "auto",
    tol: float = 1e-10,
) -> np.ndarray:
    """Solve the Laplace equation given the boundary as a loop vector (``4N``)."""

    boundary_field = grid.insert_boundary(boundary_loop)
    return solve_laplace(grid, boundary_field, method=method, tol=tol)


@functools.lru_cache(maxsize=_OPERATOR_CACHE_ENTRIES)
def _build_loop_operator(
    nx: int, ny: int, extent: tuple[float, float], method: str
) -> np.ndarray:
    grid = Grid2D(nx, ny, extent)
    operator = np.empty((grid.boundary_size, ny, nx))
    unit = np.zeros(grid.boundary_size)
    for k in range(grid.boundary_size):
        unit[k] = 1.0
        operator[k] = solve_laplace_from_loop(grid, unit, method=method)
        unit[k] = 0.0
    operator.setflags(write=False)
    return operator


def laplace_loop_operator(grid: Grid2D, method: str = "auto") -> np.ndarray:
    """Boundary-loop to full-field operator of the discrete Laplace problem.

    The discrete solution is linear in the Dirichlet loop, so the field for
    any loop ``g`` is ``sum_k g[k] * operator[k]`` where ``operator[k]`` is
    :func:`solve_laplace_from_loop` applied to the ``k``-th unit loop.  The
    returned array has shape ``(boundary_size, ny, nx)`` and is read-only: it
    is built once per ``(nx, ny, extent, method)`` (the origin does not enter
    the Laplace problem) and shared by every caller in the process through a
    bounded cache, see ``_OPERATOR_CACHE_ENTRIES``.  A corner sample appears
    twice in the loop and :meth:`Grid2D.insert_boundary` keeps the later one;
    the operator inherits that, its slice for the earlier sample is zero.
    """

    # lru_cache alone would let two threads that miss together both build.
    with _operator_lock:
        return _build_loop_operator(grid.nx, grid.ny, tuple(grid.extent), method)
