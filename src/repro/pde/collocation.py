"""Collocation point sampling for the physics-informed loss."""

from __future__ import annotations

import numpy as np

from .bvp import Domain

__all__ = ["sample_collocation", "sample_interior_uniform", "sample_interior_sobol", "grid_points"]


def sample_interior_uniform(
    domain: Domain, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform random interior points, shape ``(count, 2)``."""

    x0, y0 = domain.origin
    lx, ly = domain.extent
    points = rng.uniform(size=(count, 2))
    points[:, 0] = x0 + points[:, 0] * lx
    points[:, 1] = y0 + points[:, 1] * ly
    return points


def sample_interior_sobol(domain: Domain, count: int, seed: int | None = None) -> np.ndarray:
    """Low-discrepancy (Sobol) interior points, shape ``(count, 2)``."""

    # Imported here, not at module scope: scipy.stats costs ~0.8 s and ~33 MB
    # (2-vCPU host), and only Sobol draws need it.
    from scipy.stats import qmc

    sampler = qmc.Sobol(d=2, scramble=True, seed=seed)
    unit = sampler.random(count)
    x0, y0 = domain.origin
    lx, ly = domain.extent
    points = np.empty_like(unit)
    points[:, 0] = x0 + unit[:, 0] * lx
    points[:, 1] = y0 + unit[:, 1] * ly
    return points


def grid_points(domain: Domain, nx: int, ny: int | None = None) -> np.ndarray:
    """All points of a regular grid over the domain, shape ``(nx*ny, 2)``."""

    return domain.grid(nx, ny).points()


def sample_collocation(
    domain: Domain,
    count: int,
    rng: np.random.Generator | None = None,
    strategy: str = "uniform",
    seed: int | None = None,
) -> np.ndarray:
    """Sample collocation points for the PDE residual loss.

    ``strategy`` is ``"uniform"`` (pseudo-random) or ``"sobol"``
    (low-discrepancy).
    """

    if strategy == "uniform":
        rng = rng if rng is not None else np.random.default_rng(seed)
        return sample_interior_uniform(domain, count, rng)
    if strategy == "sobol":
        return sample_interior_sobol(domain, count, seed=seed)
    raise ValueError("strategy must be 'uniform' or 'sobol'")
