"""Module and Parameter abstractions (the ``torch.nn.Module`` analogue)."""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from ..autodiff.tensor import Tensor

__all__ = ["Parameter", "Module"]


class Parameter(Tensor):
    """A tensor that is registered as a trainable parameter of a module.

    ``version`` counts the in-place updates of ``data`` that were announced
    (:meth:`Module.parameters_changed`, ``load_state_dict``, an optimizer
    step).  Compiled inference programs fold parameter-derived values into
    constants (``X @ W2^T`` of the split layer); they compare the versions of
    their own module's parameters on every call and re-trace when one moved.
    """

    def __init__(self, data, requires_grad: bool = True):
        super().__init__(data, requires_grad=requires_grad)
        self.version = 0


class Module:
    """Base class for neural network components.

    Sub-modules and parameters assigned as attributes are registered
    automatically, mirroring the PyTorch convention.  Provides parameter
    iteration, gradient zeroing and a flat ``state_dict`` for
    checkpointing / broadcasting parameters between data-parallel ranks.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())

    # -- registration ---------------------------------------------------------

    def __setattr__(self, name: str, value) -> None:
        # Re-assigning an attribute with a value of a *different* kind must
        # drop the stale registration: leaving it behind would make
        # ``named_parameters`` yield phantom entries (and, for a parameter
        # shadowed by a module, duplicate names), breaking the deterministic
        # iteration order that tracing and checkpointing rely on.
        if isinstance(value, Parameter):
            self._modules.pop(name, None)
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._parameters.pop(name, None)
            self._modules[name] = value
        else:
            # Plain values may be assigned before ``Module.__init__`` ran
            # (the registries do not exist yet) — only clean up when they do.
            parameters = self.__dict__.get("_parameters")
            if parameters is not None:
                parameters.pop(name, None)
                self.__dict__["_modules"].pop(name, None)
        object.__setattr__(self, name, value)

    def register_parameter(self, name: str, param: Parameter) -> None:
        self._parameters[name] = param
        object.__setattr__(self, name, param)

    def add_module(self, name: str, module: "Module") -> None:
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # -- iteration -------------------------------------------------------------

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs in a deterministic order.

        The order is documented and stable across runs: this module's own
        parameters first, in registration order (the order of *first*
        assignment; re-assigning an existing name keeps its position), then
        each sub-module's parameters in sub-module registration order,
        depth-first.  Tracing, ``state_dict`` serialization and data-parallel
        parameter broadcasts all rely on this ordering.
        """

        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""

        return sum(p.size for p in self.parameters())

    # -- gradients / state ------------------------------------------------------

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        return OrderedDict(
            (name, p.data.copy()) for name, p in self.named_parameters()
        )

    def load_state_dict(self, state: dict) -> None:
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise KeyError(
                f"state_dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, value in state.items():
            value = np.asarray(value, dtype=params[name].data.dtype)
            if value.shape != params[name].data.shape:
                raise ValueError(
                    f"shape mismatch for '{name}': "
                    f"{value.shape} vs {params[name].data.shape}"
                )
            params[name].data[...] = value
        self.parameters_changed()

    def parameters_changed(self) -> None:
        """Announce in-place writes to this module's parameters, after the last one.

        ``load_state_dict`` (and with it checkpoint loading and the
        data-parallel parameter broadcast) does this itself, as does every
        optimizer step; code that writes ``param.data`` by hand calls it.
        """

        for p in self.parameters():
            p.version += 1

    # -- forward ----------------------------------------------------------------

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """Container holding an ordered list of sub-modules."""

    def __init__(self, modules=()):
        super().__init__()
        self._list: list[Module] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        index = len(self._list)
        self._list.append(module)
        self.add_module(str(index), module)
        return self

    def __iter__(self):
        return iter(self._list)

    def __len__(self) -> int:
        return len(self._list)

    def __getitem__(self, index: int) -> Module:
        return self._list[index]


Module.ModuleList = ModuleList
__all__.append("ModuleList")
