"""Single-device training, metrics and the Table 3 memory study."""

import numpy as np
import pytest

from repro.data import generate_dataset
from repro.models import ConcatSolver, SDNet
from repro.training import (
    EvaluationMetrics,
    Trainer,
    TrainingConfig,
    evaluate_validation_mse,
    mae,
    max_error,
    measure_training_memory,
    mse,
    relative_l2,
)


class TestMetrics:
    def test_values(self):
        pred = np.array([1.0, 2.0, 4.0])
        target = np.array([1.0, 1.0, 1.0])
        assert mse(pred, target) == pytest.approx(10.0 / 3.0)
        assert mae(pred, target) == pytest.approx(4.0 / 3.0)
        assert max_error(pred, target) == pytest.approx(3.0)
        assert relative_l2(pred, target) == pytest.approx(np.sqrt(10.0) / np.sqrt(3.0))

    def test_zero_target_relative_error(self):
        assert relative_l2(np.array([1.0]), np.array([0.0])) == pytest.approx(1.0)

    def test_evaluation_metrics_container(self):
        metrics = EvaluationMetrics(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        assert metrics.as_dict() == {"mse": 0.0, "mae": 0.0, "max_error": 0.0, "relative_l2": 0.0}


def make_model(dataset, seed=0):
    return SDNet(
        boundary_size=dataset.grid.boundary_size,
        hidden_size=16,
        trunk_layers=2,
        embedding_channels=(2,),
        rng=seed,
    )


class TestTrainer:
    def test_loss_decreases_over_epochs(self, tiny_dataset):
        train, val = tiny_dataset.split(validation_fraction=0.25, seed=0)
        config = TrainingConfig(
            epochs=3, batch_size=4, data_points_per_domain=16,
            collocation_points_per_domain=8, max_lr=2e-3, seed=0,
        )
        trainer = Trainer(make_model(tiny_dataset), config, train, val)
        history = trainer.fit()
        assert len(history.train_loss) == 3
        assert history.train_loss[-1] < history.train_loss[0]
        assert len(history.validation_mse) == 3
        assert all(np.isfinite(history.validation_mse))

    def test_pure_data_training_without_pde_loss(self, tiny_dataset):
        train, val = tiny_dataset.split(validation_fraction=0.25, seed=0)
        config = TrainingConfig(epochs=1, batch_size=4, use_pde_loss=False, seed=1)
        trainer = Trainer(make_model(tiny_dataset), config, train, val)
        history = trainer.fit()
        assert history.train_pde_loss[0] == 0.0

    def test_gradient_computation_structure(self, tiny_dataset):
        config = TrainingConfig(epochs=1, batch_size=4, data_points_per_domain=8,
                                collocation_points_per_domain=4)
        model = make_model(tiny_dataset)
        trainer = Trainer(model, config, tiny_dataset)
        batch = next(iter(trainer._iterator(0, 1)))
        grads, losses = trainer.compute_gradients(batch)
        assert len(grads) == len(model.parameters())
        assert all(g.shape == p.data.shape for g, p in zip(grads, model.parameters()))
        assert losses["total"] == pytest.approx(losses["data"] + losses["pde"])

    def test_history_epochs_to_reach(self, tiny_dataset):
        from repro.training import TrainingHistory

        history = TrainingHistory(validation_mse=[0.5, 0.1, 0.01])
        assert history.epochs_to_reach(0.2) == 2
        assert history.epochs_to_reach(1e-9) is None
        assert history.best_validation_mse() == pytest.approx(0.01)

    def test_invalid_optimizer_name(self, tiny_dataset):
        config = TrainingConfig(optimizer="rmsprop")
        with pytest.raises(ValueError):
            Trainer(make_model(tiny_dataset), config, tiny_dataset)

    def test_evaluate_validation_mse_bounds_instances(self, tiny_dataset, small_sdnet):
        full = evaluate_validation_mse(small_sdnet, tiny_dataset)
        partial = evaluate_validation_mse(small_sdnet, tiny_dataset, max_instances=4)
        assert np.isfinite(full) and np.isfinite(partial)


class TestCompiledPhysicsLossByDefault:
    """``TrainingConfig()`` compiles both loss terms whenever the model can."""

    @staticmethod
    def _loss_after_one_step(model, dataset, **options):
        config = TrainingConfig(epochs=1, batch_size=4, data_points_per_domain=8,
                                collocation_points_per_domain=4, **options)
        trainer = Trainer(model, config, dataset)
        trainer.train_step(next(iter(trainer._iterator(0, 1))))
        return trainer.loss_fn

    def test_sdnet_compiles(self, tiny_dataset):
        model = make_model(tiny_dataset)
        loss = self._loss_after_one_step(model, tiny_dataset)
        assert loss.engine
        assert sorted(term for _, term in loss._compiled) == ["data", "pde"]
        assert all(entry[0] is model for entry in loss._compiled.values())

    def test_concat_solver_runs_eager(self, tiny_dataset):
        model = ConcatSolver(boundary_size=tiny_dataset.grid.boundary_size,
                             hidden_size=8, trunk_layers=1, rng=0)
        loss = self._loss_after_one_step(model, tiny_dataset)
        assert not loss.engine and loss._compiled == {}

    def test_engine_false_runs_eager(self, tiny_dataset):
        model = make_model(tiny_dataset)
        loss = self._loss_after_one_step(model, tiny_dataset, engine=False)
        assert not loss.engine and loss._compiled == {}

    def test_served_model_recipe_is_bitwise_equal_to_eager(self):
        # The recipe of the SDNet the benchmark serves (bench/workloads.py).
        dataset = generate_dataset(num_samples=256, resolution=9, extent=(0.5, 0.5), seed=0)
        train, val = dataset.split(validation_fraction=0.125, seed=0)
        runs = {}
        for engine in (True, False):
            model = SDNet(boundary_size=dataset.grid.boundary_size, hidden_size=24,
                          trunk_layers=2, embedding_channels=(2,), rng=0)
            options = {} if engine else {"engine": False}  # the default compiles
            config = TrainingConfig(
                epochs=6, batch_size=8, data_points_per_domain=32,
                collocation_points_per_domain=16, max_lr=3e-3, seed=0, **options,
            )
            trainer = Trainer(model, config, train, val)
            history = trainer.fit()
            assert trainer.loss_fn.engine is engine
            runs[engine] = (
                [p.data.tobytes() for p in model.parameters()],
                [np.array(getattr(history, name)).tobytes() for name in (
                    "train_loss", "train_data_loss", "train_pde_loss", "validation_mse")],
            )
        assert runs[True] == runs[False]


class TestMemoryStudy:
    def test_pde_loss_inflates_graph_memory(self, tiny_dataset):
        model = make_model(tiny_dataset)
        without = measure_training_memory(model, num_domains=4, points_per_domain=16,
                                           with_pde_loss=False)
        with_pde = measure_training_memory(model, num_domains=4, points_per_domain=16,
                                           with_pde_loss=True)
        assert with_pde.graph_bytes > 3 * without.graph_bytes
        assert with_pde.tensor_count > without.tensor_count

    def test_memory_grows_with_domain_count(self, tiny_dataset):
        model = make_model(tiny_dataset)
        small = measure_training_memory(model, num_domains=2, with_pde_loss=True)
        large = measure_training_memory(model, num_domains=8, with_pde_loss=True)
        assert large.graph_bytes > 2 * small.graph_bytes

    def test_oom_projection(self, tiny_dataset):
        model = make_model(tiny_dataset)
        report = measure_training_memory(model, num_domains=2, with_pde_loss=True)
        assert not report.would_oom()           # tiny model fits a 16 GB budget
        assert report.would_oom(budget_bytes=1)  # but not a 1-byte budget
        assert report.gigabytes > 0
