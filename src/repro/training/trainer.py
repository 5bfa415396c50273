"""Single-device SDNet trainer.

Implements the paper's training recipe on one (simulated) device: the
two-term physics-informed loss, LAMB/AdamW optimization, warmup + polynomial
learning-rate decay, and per-epoch validation MSE tracking.  The data-parallel
trainer (:mod:`repro.training.ddp`) reuses this class per rank and adds the
Algorithm 1 gradient synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..autodiff.tensor import Tensor
from ..data.dataset import BatchIterator, SDNetDataset, TrainingBatch
from ..models.base import NeuralSolver
from ..obs.trace import span
from ..optim import LAMB, AdamW, Optimizer, WarmupPolynomialDecay
from ..pde.losses import PinnLoss
from .metrics import mse

__all__ = ["TrainingConfig", "TrainingHistory", "Trainer", "evaluate_validation_mse"]


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters of an SDNet training run (paper Section 5.2 defaults)."""

    epochs: int = 10
    batch_size: int = 32
    max_lr: float = 1e-3
    warmup_fraction: float = 0.001
    lr_decay_power: float = 1.0
    weight_decay: float = 0.0
    optimizer: str = "lamb"                # "lamb", "adamw"
    data_points_per_domain: int = 64
    collocation_points_per_domain: int = 64
    pde_weight: float = 1.0
    use_pde_loss: bool = True
    laplacian_method: str = "taylor"
    #: run both loss terms' forward+backward (data MSE and physics residual)
    #: through the repro.engine jet compiler (bitwise-identical gradients,
    #: compiled speed) wherever it can: the Taylor method on a model with
    #: ``laplacian_taylor`` (SDNet).  Other models train on the eager tape;
    #: ``False`` forces it for all.
    engine: bool = True
    seed: int = 0


@dataclass
class TrainingHistory:
    """Per-epoch record of a training run."""

    train_loss: list = field(default_factory=list)
    train_data_loss: list = field(default_factory=list)
    train_pde_loss: list = field(default_factory=list)
    validation_mse: list = field(default_factory=list)
    learning_rates: list = field(default_factory=list)
    epoch_times: list = field(default_factory=list)

    def best_validation_mse(self) -> float:
        return min(self.validation_mse) if self.validation_mse else float("inf")

    def epochs_to_reach(self, target_mse: float) -> int | None:
        """First epoch (1-based) whose validation MSE is below ``target_mse``."""

        for epoch, value in enumerate(self.validation_mse, start=1):
            if value <= target_mse:
                return epoch
        return None


def build_optimizer(model: NeuralSolver, config: TrainingConfig, lr: float) -> Optimizer:
    """Create the optimizer named in the config."""

    if config.optimizer == "lamb":
        return LAMB(model.parameters(), lr=lr, weight_decay=config.weight_decay)
    if config.optimizer == "adamw":
        return AdamW(model.parameters(), lr=lr, weight_decay=config.weight_decay)
    raise ValueError("optimizer must be 'lamb' or 'adamw'")


def evaluate_validation_mse(
    model: NeuralSolver, dataset: SDNetDataset, max_instances: int | None = None
) -> float:
    """Validation MSE over full solution fields (paper's validation metric)."""

    from ..autodiff import no_grad

    n = len(dataset) if max_instances is None else min(len(dataset), max_instances)
    if n == 0:
        return float("nan")
    indices = np.arange(n)
    boundaries, x, u = dataset.full_grid_batch(indices)
    with no_grad():
        prediction = model(Tensor(boundaries), Tensor(x)).data
    return mse(prediction, u)


class Trainer:
    """Single-device physics-informed trainer."""

    def __init__(
        self,
        model: NeuralSolver,
        config: TrainingConfig,
        train_dataset: SDNetDataset,
        validation_dataset: SDNetDataset | None = None,
    ):
        self.model = model
        self.config = config
        self.train_dataset = train_dataset
        self.validation_dataset = validation_dataset
        self.loss_fn = PinnLoss(
            pde_weight=config.pde_weight,
            laplacian_method=config.laplacian_method,
            use_pde_loss=config.use_pde_loss,
            engine=(
                config.engine
                and config.laplacian_method == "taylor"
                and hasattr(model, "laplacian_taylor")
            ),
        )
        self.optimizer = build_optimizer(model, config, config.max_lr)
        iterations = max(len(self._iterator(rank=0, world_size=1)) * config.epochs, 1)
        self.scheduler = WarmupPolynomialDecay(
            self.optimizer,
            max_lr=config.max_lr,
            total_iterations=iterations,
            warmup_fraction=config.warmup_fraction,
            power=config.lr_decay_power,
        )

    # -- plumbing ---------------------------------------------------------------

    def _iterator(self, rank: int, world_size: int) -> BatchIterator:
        return BatchIterator(
            self.train_dataset,
            batch_size=self.config.batch_size,
            data_points_per_domain=self.config.data_points_per_domain,
            collocation_points_per_domain=self.config.collocation_points_per_domain,
            seed=self.config.seed,
            rank=rank,
            world_size=world_size,
        )

    # -- core steps ---------------------------------------------------------------

    def compute_gradients(self, batch: TrainingBatch) -> tuple[list[np.ndarray], dict]:
        """Algorithm 1, steps 1-2: two passes with locally accumulated gradients.

        Returns the per-parameter gradient arrays (data + PDE contributions
        summed locally, *not* yet averaged across ranks) and the loss values.
        """

        g = Tensor(batch.boundaries)

        # Step 1: data points.  Both terms go through PinnLoss so the
        # engine-compiled jet programs (config.engine) and the eager tape are
        # interchangeable — they produce bitwise-identical gradients.
        with span("train.data_loss", engine=self.loss_fn.engine):
            data_value, grads = self.loss_fn.data_term_and_grads(
                self.model, g, Tensor(batch.x_data), Tensor(batch.u_data)
            )

        # Step 2: collocation points, accumulated onto the data gradients.
        pde_value = 0.0
        if self.config.use_pde_loss:
            with span("train.pde_loss", engine=self.loss_fn.engine):
                pde_value, grads_pde = self.loss_fn.pde_term_and_grads(
                    self.model, g, Tensor(batch.x_collocation)
                )
                grads = [gd + gp for gd, gp in zip(grads, grads_pde)]

        losses = {
            "data": data_value,
            "pde": pde_value,
            "total": data_value + self.config.pde_weight * pde_value,
        }
        return grads, losses

    def apply_gradients(self, grads: list[np.ndarray]) -> None:
        """Install gradients on the parameters and take an optimizer step."""

        with span("train.optimizer"):
            for param, g_arr in zip(self.model.parameters(), grads):
                param.grad = Tensor(g_arr)
            self.scheduler.step()
            self.optimizer.step()
            self.optimizer.zero_grad()

    def train_step(self, batch: TrainingBatch) -> dict:
        with span("train.step"):
            grads, losses = self.compute_gradients(batch)
            self.apply_gradients(grads)
        return losses

    # -- full loop -------------------------------------------------------------------

    def fit(self, epochs: int | None = None) -> TrainingHistory:
        """Train for ``epochs`` (defaults to the config value)."""

        import time

        epochs = epochs if epochs is not None else self.config.epochs
        iterator = self._iterator(rank=0, world_size=1)
        history = TrainingHistory()
        for epoch in range(epochs):
            iterator.set_epoch(epoch)
            tic = time.perf_counter()
            epoch_losses = []
            for batch in iterator:
                epoch_losses.append(self.train_step(batch))
            history.epoch_times.append(time.perf_counter() - tic)
            if epoch_losses:
                history.train_loss.append(float(np.mean([l["total"] for l in epoch_losses])))
                history.train_data_loss.append(float(np.mean([l["data"] for l in epoch_losses])))
                history.train_pde_loss.append(float(np.mean([l["pde"] for l in epoch_losses])))
            history.learning_rates.append(self.optimizer.lr)
            if self.validation_dataset is not None:
                history.validation_mse.append(
                    evaluate_validation_mse(self.model, self.validation_dataset)
                )
        return history
