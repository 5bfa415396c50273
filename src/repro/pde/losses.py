"""Physics-informed loss functions.

The SDNet training loss (Section 3.3 of the paper) is the sum of

* a **data loss**: mean squared error between the network prediction and the
  reference (pyAMG-substitute) solution at points with known values, and
* a **PDE loss** (eq. 3): the mean squared PDE residual — for the Laplace
  equation, the squared Laplacian of the network output — evaluated at
  collocation points, which requires second derivatives with respect to the
  network inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..autodiff import ops
from ..autodiff.tensor import Tensor, astensor
from ..models.base import NeuralSolver

__all__ = [
    "mse_loss",
    "data_loss",
    "laplace_residual_loss",
    "LAPLACIAN_METHODS",
    "PinnLoss",
    "PinnLossValues",
]


def mse_loss(prediction: Tensor, target) -> Tensor:
    """Mean squared error between a prediction tensor and a target array."""

    target = astensor(target)
    diff = prediction - target
    return ops.mean(diff * diff)


def data_loss(model: NeuralSolver, g, x, u_true) -> Tensor:
    """MSE between the model prediction and known solution values."""

    prediction = model(g, x)
    return mse_loss(prediction, u_true)


#: Laplacian schemes accepted by :func:`laplace_residual_loss`.
LAPLACIAN_METHODS = ("taylor", "autograd")


def laplace_residual_loss(
    model: NeuralSolver, g, x_collocation, method: str = "taylor"
) -> Tensor:
    """Mean squared Laplace residual at collocation points (eq. 3).

    ``method`` must be one of :data:`LAPLACIAN_METHODS`; an unrecognized
    name raises :class:`ValueError` instead of silently falling back to the
    model's default Laplacian.
    """

    if method not in LAPLACIAN_METHODS:
        raise ValueError(
            f"unknown Laplacian method {method!r}; accepted methods: "
            f"{', '.join(LAPLACIAN_METHODS)}"
        )
    if method == "taylor" and hasattr(model, "laplacian_taylor"):
        residual = model.laplacian(g, x_collocation, create_graph=True, method="taylor")
    elif method == "autograd" and hasattr(model, "laplacian_autograd"):
        residual = model.laplacian_autograd(g, x_collocation, create_graph=True)
    else:
        # Models without the requested specialized scheme (e.g. a plain
        # NeuralSolver asked for "taylor") fall back to their default
        # Laplacian implementation.
        residual = model.laplacian(g, x_collocation, create_graph=True)
    return ops.mean(residual * residual)


@dataclass
class PinnLossValues:
    """Container for the individual loss terms of one evaluation."""

    total: Tensor
    data: Tensor
    pde: Tensor

    def to_floats(self) -> dict[str, float]:
        return {
            "total": self.total.item(),
            "data": self.data.item(),
            "pde": self.pde.item(),
        }


class PinnLoss:
    """Combined physics-informed loss ``L = L_data + pde_weight * L_pde``.

    Parameters
    ----------
    pde_weight:
        Weight of the PDE residual term (the paper uses an unweighted sum).
    laplacian_method:
        ``"taylor"`` (forward-over-reverse, default) or ``"autograd"``
        (nested reverse mode) for the second derivatives.
    use_pde_loss:
        Disabling the PDE term reproduces the purely data-driven ablation of
        Table 3.
    engine:
        Run both terms' forward **and** backward passes through the
        :mod:`repro.engine` jet compiler: each term (the data MSE via
        :meth:`data_term_and_grads`; the Taylor-mode Laplacian and its
        residual reduction via :meth:`pde_term_and_grads`) is traced once,
        with its parameter reverse sweep, into a static program and replayed
        through preallocated (bucketed) plans — bitwise identical to the
        eager tape, so enabling the engine only changes training *speed*.
        Requires ``laplacian_method="taylor"`` and a model with the
        Taylor-mode path (SDNet).  Off by default here, so a bare
        ``PinnLoss()`` is the eager oracle; :class:`~repro.training.Trainer`
        turns it on wherever the model allows (``TrainingConfig.engine``).
        ``data_term``/``pde_term``/``__call__`` always stay eager: they
        return graph-connected tensors for callers that build their own
        backward pass.
    engine_options:
        Extra keyword arguments for
        :class:`~repro.engine.jet.CompiledValueAndGrad` (e.g.
        ``max_plan_bytes``, ``bucketing``, ``validate``).
    """

    def __init__(
        self,
        pde_weight: float = 1.0,
        laplacian_method: str = "taylor",
        use_pde_loss: bool = True,
        engine: bool = False,
        engine_options: dict | None = None,
    ):
        self.pde_weight = float(pde_weight)
        self.laplacian_method = laplacian_method
        self.use_pde_loss = bool(use_pde_loss)
        self.engine = bool(engine)
        self.engine_options = dict(engine_options or {})
        if self.engine and self.laplacian_method != "taylor":
            raise ValueError(
                "PinnLoss(engine=True) compiles the Taylor-mode Laplacian; "
                f"laplacian_method must be 'taylor', got {laplacian_method!r}"
            )
        # (id(model), term) -> (model, weight, CompiledValueAndGrad); the
        # model reference keeps the id stable for the lifetime of the entry.
        self._compiled: dict = {}

    def data_term(self, model: NeuralSolver, g, x_data, u_data) -> Tensor:
        return data_loss(model, g, x_data, u_data)

    def pde_term(self, model: NeuralSolver, g, x_collocation) -> Tensor:
        return laplace_residual_loss(model, g, x_collocation, method=self.laplacian_method)

    # -- compiled terms ------------------------------------------------------------

    def _program_for(self, model: NeuralSolver, term: str):
        # The PDE weight is baked into the traced program (the eager path
        # multiplies before the reverse sweep, and bitwise parity requires
        # replaying that), so a weight change invalidates the cached entry.
        weight = self.pde_weight if term == "pde" else 1.0
        entry = self._compiled.get((id(model), term))
        if entry is not None and entry[0] is model and entry[1] == weight:
            return entry[2]
        from ..engine.jet import CompiledValueAndGrad

        if not hasattr(model, "laplacian_taylor"):
            raise ValueError(
                "PinnLoss(engine=True) requires a model with a Taylor-mode "
                f"Laplacian (laplacian_taylor); {type(model).__name__} has none"
            )
        if term == "pde":
            program = CompiledValueAndGrad(
                lambda g, x: laplace_residual_loss(model, g, x, method="taylor"),
                model,
                grad_transform=lambda loss: weight * loss,
                **self.engine_options,
            )
        else:
            program = CompiledValueAndGrad(
                lambda g, x, u: data_loss(model, g, x, u), model, **self.engine_options
            )
        self._compiled[(id(model), term)] = (model, weight, program)
        return program

    def data_term_and_grads(self, model: NeuralSolver, g, x_data, u_data):
        """The data term's value and its parameter gradients.

        Returns ``(value, grads)``: the data MSE as a float and a list of
        numpy arrays, the gradients of ``L_data`` with respect to
        ``model.parameters()`` in that order.  With ``engine=True`` the
        computation runs through a compiled jet program; otherwise through
        the eager tape.  The results are bitwise equal.
        """

        from ..autodiff import grad

        if self.engine:
            value, grads = self._program_for(model, "data")(g, x_data, u_data)
            return float(value), list(grads)
        data_term = self.data_term(model, g, x_data, u_data)
        grads = grad(data_term, model.parameters())
        return data_term.item(), [t.data for t in grads]

    def pde_term_and_grads(self, model: NeuralSolver, g, x_collocation):
        """The PDE term's value and its weighted parameter gradients.

        Returns ``(value, grads)`` where ``value`` is the *unweighted*
        residual loss as a float and ``grads`` is a list of numpy arrays —
        the gradients of ``pde_weight * L_pde`` with respect to
        ``model.parameters()``, in that order.  With ``engine=True`` the
        computation runs through the compiled jet program; otherwise through
        the eager tape.  Both paths compute identical floating-point
        operations, so the results are bitwise equal.
        """

        from ..autodiff import grad

        if self.engine:
            value, grads = self._program_for(model, "pde")(g, x_collocation)
            return float(value), list(grads)
        pde_term = self.pde_term(model, g, x_collocation)
        grads = grad(self.pde_weight * pde_term, model.parameters())
        return pde_term.item(), [t.data for t in grads]

    def __call__(
        self,
        model: NeuralSolver,
        g,
        x_data,
        u_data,
        x_collocation=None,
    ) -> PinnLossValues:
        """Evaluate both terms and their (weighted) sum."""

        l_data = self.data_term(model, g, x_data, u_data)
        if self.use_pde_loss and x_collocation is not None:
            l_pde = self.pde_term(model, g, x_collocation)
        else:
            l_pde = Tensor(np.zeros(()))
        total = l_data + self.pde_weight * l_pde
        return PinnLossValues(total=total, data=l_data, pde=l_pde)
