"""Finite-difference substrate: grids, discretization, multigrid and solvers.

This package is the reproduction's replacement for pyAMG — it provides the
ground-truth Dirichlet Laplace/Poisson solutions used for SDNet training data
and for evaluating the Mosaic Flow predictor.
"""

from .discretize import apply_laplacian, assemble_poisson, laplacian_matrix, poisson_rhs
from .grid import Grid2D, boundary_loop_indices
from .krylov import conjugate_gradient
from .masked import assemble_poisson_masked, solve_laplace_masked, solve_poisson_masked
from .multigrid import GeometricMultigrid, prolongation_1d
from .smoothers import gauss_seidel, get_smoother, sor, weighted_jacobi
from .solve import laplace_loop_operator, solve_laplace, solve_laplace_from_loop, solve_poisson

__all__ = [
    "Grid2D",
    "boundary_loop_indices",
    "laplacian_matrix",
    "poisson_rhs",
    "assemble_poisson",
    "apply_laplacian",
    "assemble_poisson_masked",
    "solve_poisson_masked",
    "solve_laplace_masked",
    "GeometricMultigrid",
    "prolongation_1d",
    "conjugate_gradient",
    "weighted_jacobi",
    "gauss_seidel",
    "sor",
    "get_smoother",
    "solve_poisson",
    "solve_laplace",
    "solve_laplace_from_loop",
    "laplace_loop_operator",
]
