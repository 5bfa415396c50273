"""LAMB optimizer (layer-wise adaptive moments for large-batch training).

The paper adopts LAMB (You et al., ICLR 2020) once data-parallel training
pushes the global batch to tens of thousands of points, finding it converges
better than AdamW in that regime (Section 5.2).  This is a pure-Python
re-implementation of the update rule used by NVIDIA Apex ``FusedLAMB``:

1. compute the bias-corrected Adam direction ``r``;
2. add decoupled weight decay: ``u = r + wd * param``;
3. scale by the trust ratio ``phi = ||param|| / ||u||`` (clamped), applied
   per parameter tensor (layer-wise);
4. ``param <- param - lr * phi * u``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..nn.module import Parameter
from .adam import Adam

__all__ = ["LAMB"]


class LAMB(Adam):
    """Layer-wise Adaptive Moments optimizer for Batch training."""

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-6,
        weight_decay: float = 0.0,
        max_trust_ratio: float = 10.0,
    ):
        super().__init__(params, lr=lr, betas=betas, eps=eps, weight_decay=weight_decay)
        self.max_trust_ratio = float(max_trust_ratio)

    def _update(self) -> None:
        for i, p in enumerate(self.params):
            g = self._grad(p)
            direction = self._adam_direction(i, g)
            if self.weight_decay:
                direction = direction + self.weight_decay * p.data
            weight_norm = float(np.linalg.norm(p.data))
            update_norm = float(np.linalg.norm(direction))
            if weight_norm > 0.0 and update_norm > 0.0:
                trust_ratio = min(weight_norm / update_norm, self.max_trust_ratio)
            else:
                trust_ratio = 1.0
            p.data -= self.lr * trust_ratio * direction
