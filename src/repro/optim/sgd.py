"""Stochastic gradient descent with optional momentum."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..nn.module import Parameter
from .optimizer import Optimizer

__all__ = ["SGD"]


class SGD(Optimizer):
    """Plain SGD with classical momentum and optional weight decay.

    Update rule (per parameter)::

        v   <- momentum * v + grad + weight_decay * param
        param <- param - lr * v
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 1e-3,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def _update(self) -> None:
        for p, v in zip(self.params, self._velocity):
            g = self._grad(p)
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            if self.momentum:
                v *= self.momentum
                v += g
                update = v
            else:
                update = g
            p.data -= self.lr * update
