"""Train an SDNet with the compiled physics loss.

Demonstrates the jet compiler in the training loop (PR 5): the Taylor-mode
Laplacian residual **and** its parameter backward pass run as one compiled
program (``TrainingConfig(engine=True)`` -> ``PinnLoss(engine=True)`` ->
``repro.engine.CompiledValueAndGrad``), with bucketed execution plans reused
across the ragged collocation batches of each epoch.

The script trains the same model twice from the same seed — once eagerly,
once compiled — and shows:

* per-epoch wall times and the mean physics-loss step time of both runs,
* that the loss histories and final parameters are **bitwise identical**
  (the compiled program replays the eager tape's floating-point operations
  exactly, so the engine changes speed, never results),
* the engine's plan statistics: traces taken, bucket templates built and
  plan memory in use.

Run from the repository root:

    PYTHONPATH=src python examples/compiled_training.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.data import generate_dataset
from repro.models import SDNet
from repro.training import Trainer, TrainingConfig

RESOLUTION = 9
EPOCHS = 3


def build_trainer(engine: bool, dataset, validation):
    model = SDNet(
        boundary_size=dataset.grid.boundary_size,
        hidden_size=24,
        trunk_layers=2,
        embedding_channels=(2,),
        rng=0,
    )
    config = TrainingConfig(
        epochs=EPOCHS,
        batch_size=8,
        data_points_per_domain=32,
        collocation_points_per_domain=16,
        max_lr=3e-3,
        seed=0,
        engine=engine,
    )
    return Trainer(model, config, dataset, validation)


def main() -> None:
    print("generating dataset (GP boundaries + FD reference solutions)...")
    dataset = generate_dataset(
        num_samples=40, resolution=RESOLUTION, extent=(0.5, 0.5), seed=0
    )
    train, validation = dataset.split(validation_fraction=0.2, seed=0)

    results = {}
    for engine in (False, True):
        label = "compiled" if engine else "eager"
        trainer = build_trainer(engine, train, validation)

        # time the physics-loss step in isolation (the tentpole hot path)
        batch = next(iter(trainer._iterator(rank=0, world_size=1)))
        from repro.autodiff import Tensor

        g = Tensor(batch.boundaries)
        x = Tensor(batch.x_collocation)
        trainer.loss_fn.pde_term_and_grads(trainer.model, g, x)  # warm-up
        tic = time.perf_counter()
        for _ in range(10):
            trainer.loss_fn.pde_term_and_grads(trainer.model, g, x)
        step_ms = (time.perf_counter() - tic) / 10 * 1e3

        tic = time.perf_counter()
        history = trainer.fit()
        total = time.perf_counter() - tic
        results[engine] = (trainer, history, step_ms, total)
        print(
            f"{label:9s}: physics-loss step {step_ms:6.2f} ms | "
            f"epochs {[f'{t:.2f}s' for t in history.epoch_times]} | "
            f"total {total:.2f}s"
        )

    eager_trainer, eager_history, eager_step, eager_total = results[False]
    engine_trainer, engine_history, engine_step, engine_total = results[True]

    print()
    print(f"physics-loss step speedup : {eager_step / engine_step:.2f}x")
    print(f"end-to-end epoch speedup  : {eager_total / engine_total:.2f}x")

    identical_losses = (
        eager_history.train_loss == engine_history.train_loss
        and eager_history.train_pde_loss == engine_history.train_pde_loss
    )
    state_e = eager_trainer.model.state_dict()
    state_c = engine_trainer.model.state_dict()
    identical_params = all(
        state_e[name].tobytes() == state_c[name].tobytes() for name in state_e
    )
    print(f"loss histories identical  : {identical_losses}")
    print(f"final params bitwise same : {identical_params}")
    print(f"final train loss          : {engine_history.train_loss[-1]:.6e}")
    assert identical_losses and identical_params, "engine must not change results"

    program = engine_trainer.loss_fn._program_for(engine_trainer.model, "pde")
    stats = program.stats.as_dict()
    print()
    print("engine statistics (physics-loss program):")
    print(f"  traces            : {stats['traces']}")
    print(f"  bucket templates  : {stats['bucket_templates']}")
    print(f"  plan builds       : {stats['plan_builds']}")
    print(f"  specializations   : {stats['specializations']}")
    print(f"  plan bytes        : {stats['plan_bytes'] / 1e6:.2f} MB")
    print(f"  compiled calls    : {stats['calls']}")


if __name__ == "__main__":
    np.set_printoptions(precision=4, suppress=True)
    main()
