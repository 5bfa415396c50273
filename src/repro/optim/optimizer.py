"""Optimizer base class."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..nn.module import Parameter

__all__ = ["Optimizer"]


class Optimizer:
    """Base class for gradient-based optimizers.

    Sub-classes implement :meth:`_update`, which reads ``param.grad`` (set by
    ``backward`` or by the data-parallel trainer after the allreduce) and
    updates ``param.data`` in place; :meth:`step` counts the step, runs it
    and moves every managed parameter's ``version``, so compiled inference
    programs stop serving constants folded from the old values.
    """

    def __init__(self, params: Iterable[Parameter], lr: float):
        self.params: Sequence[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = float(lr)
        self._step_count = 0

    def zero_grad(self) -> None:
        """Clear gradients on every managed parameter."""

        for p in self.params:
            p.grad = None

    def _grad(self, p: Parameter) -> np.ndarray:
        if p.grad is None:
            return np.zeros_like(p.data)
        return p.grad.data

    def step(self) -> None:
        self._step_count += 1
        self._update()
        for p in self.params:
            p.version += 1

    def _update(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def step_count(self) -> int:
        return self._step_count

    def state_dict(self) -> dict:
        return {"lr": self.lr, "step_count": self._step_count}

    def load_state_dict(self, state: dict) -> None:
        self.lr = float(state["lr"])
        self._step_count = int(state["step_count"])
