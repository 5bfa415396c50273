"""Adam and AdamW optimizers."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..nn.module import Parameter
from .optimizer import Optimizer

__all__ = ["Adam", "AdamW"]


class Adam(Optimizer):
    """Adam with bias-corrected first and second moments.

    ``weight_decay`` is L2-coupled (added to the gradient), matching the
    original Adam formulation; see :class:`AdamW` for decoupled decay.
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        self.beta1, self.beta2 = float(beta1), float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def _adam_direction(self, index: int, grad: np.ndarray) -> np.ndarray:
        """Bias-corrected Adam update direction for parameter ``index``."""

        m, v = self._m[index], self._v[index]
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        m_hat = m / (1.0 - self.beta1 ** self._step_count)
        v_hat = v / (1.0 - self.beta2 ** self._step_count)
        return m_hat / (np.sqrt(v_hat) + self.eps)

    def _update(self) -> None:
        for i, p in enumerate(self.params):
            g = self._grad(p)
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            p.data -= self.lr * self._adam_direction(i, g)


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter, 2019).

    This is the optimizer the paper uses for single-GPU training before
    switching to LAMB at large batch sizes.
    """

    def _update(self) -> None:
        for i, p in enumerate(self.params):
            g = self._grad(p)
            direction = self._adam_direction(i, g)
            if self.weight_decay:
                p.data -= self.lr * self.weight_decay * p.data
            p.data -= self.lr * direction
