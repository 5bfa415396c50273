"""Activation functions with first and second derivatives.

Each activation is a :class:`~repro.nn.module.Module` whose ``forward`` uses
autodiff primitives (differentiable to arbitrary order), and additionally
exposes ``derivative`` / ``second_derivative`` helpers so the forward
Taylor-mode Laplacian path (:mod:`repro.autodiff.taylor`) can propagate
second-order information without building the double-backward graph.

The paper uses GELU because physics-informed training favours smooth
activations (Section 3.1); Tanh and Sine are provided for the baseline and
ablation studies, ReLU for completeness.
"""

from __future__ import annotations

import math

from ..autodiff import ops
from ..autodiff.tensor import Tensor
from .module import Module

__all__ = ["GELU", "Tanh", "Sine", "ReLU", "Identity", "get_activation"]

_SQRT_2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _phi(x: Tensor) -> Tensor:
    """Standard normal PDF."""

    return _INV_SQRT_2PI * ops.exp(-0.5 * (x * x))


def _Phi(x: Tensor) -> Tensor:
    """Standard normal CDF."""

    return 0.5 * (1.0 + ops.erf(x / _SQRT_2))


class GELU(Module):
    """Exact (erf-based) Gaussian Error Linear Unit."""

    def __init__(self):
        super().__init__()
        # Import scipy.special here, so children forked after the model is
        # built inherit it instead of importing it on their first forward.
        ops.erf_ufunc()

    def forward(self, x: Tensor) -> Tensor:
        return x * _Phi(x)

    def derivative(self, x: Tensor) -> Tensor:
        return _Phi(x) + x * _phi(x)

    def second_derivative(self, x: Tensor) -> Tensor:
        # gelu''(x) = phi(x) * (2 - x^2)
        return _phi(x) * (2.0 - x * x)


class Tanh(Module):
    """Hyperbolic tangent."""

    def forward(self, x: Tensor) -> Tensor:
        return ops.tanh(x)

    def derivative(self, x: Tensor) -> Tensor:
        t = ops.tanh(x)
        return 1.0 - t * t

    def second_derivative(self, x: Tensor) -> Tensor:
        t = ops.tanh(x)
        return -2.0 * t * (1.0 - t * t)


class Sine(Module):
    """Sinusoidal activation (SIREN-style), useful for wave-like solutions."""

    def __init__(self, omega: float = 1.0):
        super().__init__()
        self.omega = float(omega)

    def forward(self, x: Tensor) -> Tensor:
        return ops.sin(self.omega * x)

    def derivative(self, x: Tensor) -> Tensor:
        return self.omega * ops.cos(self.omega * x)

    def second_derivative(self, x: Tensor) -> Tensor:
        return -(self.omega ** 2) * ops.sin(self.omega * x)


class ReLU(Module):
    """Rectified linear unit.  Not smooth: second derivative is zero a.e."""

    def forward(self, x: Tensor) -> Tensor:
        return ops.maximum_zero(x)

    def derivative(self, x: Tensor) -> Tensor:
        mask = (x.data > 0).astype(x.data.dtype)
        return Tensor(mask)

    def second_derivative(self, x: Tensor) -> Tensor:
        return Tensor(x.data * 0.0)


class Identity(Module):
    """No-op activation (used as the final layer of trunks)."""

    def forward(self, x: Tensor) -> Tensor:
        return x

    def derivative(self, x: Tensor) -> Tensor:
        return Tensor(x.data * 0.0 + 1.0)

    def second_derivative(self, x: Tensor) -> Tensor:
        return Tensor(x.data * 0.0)


_ACTIVATIONS = {
    "gelu": GELU,
    "tanh": Tanh,
    "sine": Sine,
    "relu": ReLU,
    "identity": Identity,
}


def get_activation(name: str) -> Module:
    """Instantiate an activation by name (``gelu``, ``tanh``, ``sine``, ``relu``)."""

    try:
        return _ACTIVATIONS[name.lower()]()
    except KeyError as exc:
        raise ValueError(
            f"unknown activation '{name}'; available: {sorted(_ACTIVATIONS)}"
        ) from exc
