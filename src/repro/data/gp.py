"""Gaussian-process boundary condition generation (Section 5.1 of the paper).

The training and evaluation boundary conditions are sample paths of 1-D
Gaussian processes along the (closed) domain boundary.  Following the paper:

1. a Sobol sequence samples the hyperparameters of an infinitely
   differentiable (squared-exponential) kernel,
2. for each hyperparameter setting a sample function is drawn from the GP,
3. the sampled curve is the discretized boundary function ``g_hat``.

Both the plain squared-exponential kernel and its periodic variant are
available; the periodic kernel produces boundary loops that close smoothly,
which is the natural choice for the boundary of a closed domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..utils.rng import sobol_2d

__all__ = [
    "squared_exponential_kernel",
    "periodic_kernel",
    "GaussianProcessSampler",
    "GPBoundaryConfig",
    "sample_kernel_hyperparameters",
]


def squared_exponential_kernel(
    s1: np.ndarray, s2: np.ndarray, lengthscale: float, variance: float
) -> np.ndarray:
    """Infinitely differentiable RBF kernel ``k(s, s')``."""

    if lengthscale <= 0 or variance <= 0:
        raise ValueError("kernel hyperparameters must be positive")
    diff = s1[:, None] - s2[None, :]
    return variance * np.exp(-0.5 * (diff / lengthscale) ** 2)


def periodic_kernel(
    s1: np.ndarray,
    s2: np.ndarray,
    lengthscale: float,
    variance: float,
    period: float,
) -> np.ndarray:
    """Exp-sine-squared kernel: smooth and periodic with the given period."""

    if lengthscale <= 0 or variance <= 0 or period <= 0:
        raise ValueError("kernel hyperparameters must be positive")
    diff = np.pi * np.abs(s1[:, None] - s2[None, :]) / period
    return variance * np.exp(-2.0 * (np.sin(diff) / lengthscale) ** 2)


@dataclass(frozen=True)
class GPBoundaryConfig:
    """Configuration of the GP boundary sampler.

    Attributes
    ----------
    lengthscale_range:
        ``(low, high)`` range the Sobol sequence maps to (log-uniform).
    variance_range:
        ``(low, high)`` range for the kernel variance (log-uniform).
    periodic:
        Use the periodic kernel so the boundary loop closes smoothly.
    jitter:
        Diagonal jitter added before the Cholesky factorization.
    """

    lengthscale_range: tuple[float, float] = (0.2, 2.0)
    variance_range: tuple[float, float] = (0.25, 1.0)
    periodic: bool = True
    jitter: float = 1e-8


def sample_kernel_hyperparameters(
    count: int, config: GPBoundaryConfig, seed: int | None = None
) -> np.ndarray:
    """Sobol-sample ``count`` (lengthscale, variance) pairs (log-uniform).

    The unit points are the first ``count`` points of the scrambled 2-D
    Sobol sequence (:func:`repro.utils.rng.sobol_2d`): the same bytes as
    scipy's ``qmc.Sobol(d=2, scramble=True, seed=seed).random(count)``
    and as the first ``count`` rows of ``random_base2(ceil(log2(count)))``.
    """

    unit = sobol_2d(count, seed)
    log_ls = np.log(config.lengthscale_range[0]) + unit[:, 0] * (
        np.log(config.lengthscale_range[1]) - np.log(config.lengthscale_range[0])
    )
    log_var = np.log(config.variance_range[0]) + unit[:, 1] * (
        np.log(config.variance_range[1]) - np.log(config.variance_range[0])
    )
    return np.stack([np.exp(log_ls), np.exp(log_var)], axis=1)


class GaussianProcessSampler:
    """Draw boundary condition curves from Sobol-parameterized GPs.

    Parameters
    ----------
    boundary_size:
        Number of samples along the boundary loop (``4N``).
    perimeter:
        Physical length of the boundary loop; the GP is defined over the
        arc-length parameterization ``s in [0, perimeter)``.
    config:
        Kernel hyperparameter ranges and options.
    seed:
        Seed shared by the Sobol sequence and the Gaussian draws.
    """

    def __init__(
        self,
        boundary_size: int,
        perimeter: float = 2.0,
        config: GPBoundaryConfig | None = None,
        seed: int | None = None,
    ):
        if boundary_size < 4:
            raise ValueError("boundary_size must be at least 4")
        self.boundary_size = int(boundary_size)
        self.perimeter = float(perimeter)
        self.config = config if config is not None else GPBoundaryConfig()
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._arc = np.linspace(0.0, self.perimeter, self.boundary_size, endpoint=False)

    def _covariance(self, lengthscale: float, variance: float) -> np.ndarray:
        if self.config.periodic:
            K = periodic_kernel(
                self._arc, self._arc, lengthscale, variance, self.perimeter
            )
        else:
            K = squared_exponential_kernel(self._arc, self._arc, lengthscale, variance)
        K[np.diag_indices_from(K)] += self.config.jitter
        return K

    def sample(self, count: int) -> np.ndarray:
        """Draw ``count`` boundary curves, shape ``(count, boundary_size)``.

        Each curve uses its own Sobol-sampled kernel hyperparameters, so the
        dataset spans a range of boundary smoothness, as in the paper.
        """

        hypers = sample_kernel_hyperparameters(count, self.config, seed=self.seed)
        curves = np.empty((count, self.boundary_size))
        for i, (lengthscale, variance) in enumerate(hypers):
            K = self._covariance(float(lengthscale), float(variance))
            chol = np.linalg.cholesky(K)
            curves[i] = chol @ self._rng.standard_normal(self.boundary_size)
        return curves

    def sample_one(self) -> np.ndarray:
        """Draw a single boundary curve, shape ``(boundary_size,)``."""

        return self.sample(1)[0]
