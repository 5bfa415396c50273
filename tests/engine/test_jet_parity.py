"""Property-based parity of compiled jet programs vs the eager tape.

The contract under test: for every supported architecture, batch size and
seed-direction count, the compiled Taylor-mode physics loss — forward AND
parameter gradients — is **bitwise identical** to eager mode, including
across in-place parameter updates and bucketed-plan reuse.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff import Tensor, grad, ops
from repro.engine import CompiledValueAndGrad, compile_value_and_grad
from repro.models import SDNet
from repro.nn import MLP
from repro.pde.losses import PinnLoss, laplace_residual_loss
from repro.utils import seeded_rng


def _loss_program(model):
    return lambda g, x: laplace_residual_loss(model, g, x, method="taylor")


def _eager_reference(model, g, x, weight=1.0):
    loss = laplace_residual_loss(model, Tensor(g), Tensor(x), method="taylor")
    grads = grad(weight * loss, model.parameters())
    return loss.data, [t.data for t in grads]


def _assert_bitwise(compiled_out, eager_out, context=""):
    loss_c, grads_c = compiled_out
    loss_e, grads_e = eager_out
    assert loss_c.tobytes() == loss_e.tobytes(), f"loss drifted {context}"
    assert len(grads_c) == len(grads_e)
    for index, (a, b) in enumerate(zip(grads_c, grads_e)):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes(), f"grad {index} drifted {context}"


#: (coord_dim, hidden, trunk_layers, embedding_channels, activation)
ARCHITECTURES = [
    (2, 12, 1, (2,), "gelu"),
    (2, 16, 3, (), "gelu"),
    (2, 8, 2, (2, 2), "tanh"),
    (3, 10, 2, (2,), "gelu"),
    (1, 8, 1, (), "tanh"),
]


class TestCompiledLaplacianParity:
    @pytest.mark.parametrize("coord_dim,hidden,layers,channels,act", ARCHITECTURES)
    def test_random_architectures_bitwise(self, coord_dim, hidden, layers, channels, act):
        model = SDNet(
            boundary_size=24, coord_dim=coord_dim, hidden_size=hidden,
            trunk_layers=layers, embedding_channels=channels, activation=act,
            rng=11,
        )
        program = CompiledValueAndGrad(
            _loss_program(model), model,
            grad_transform=lambda l: 1.0 * l, validate=True,
        )
        rng = seeded_rng(3)
        for batch in (5, 3, 7):
            g = rng.normal(size=(batch, 24))
            x = rng.uniform(size=(batch, 6, coord_dim)) * 0.5
            _assert_bitwise(
                program(g, x), _eager_reference(model, g, x),
                context=f"(batch={batch}, act={act})",
            )

    @pytest.mark.parametrize("batch", [0, 1, 2, 8, 9, 16, 17, 31, 32])
    def test_edge_and_bucket_boundary_batch_sizes(self, batch):
        """Batch 0/1 and the power-of-two bucket boundaries stay bitwise."""

        model = SDNet(boundary_size=16, hidden_size=10, trunk_layers=2,
                      embedding_channels=(2,), rng=5)
        program = CompiledValueAndGrad(
            _loss_program(model), model, grad_transform=lambda l: 1.0 * l,
        )
        rng = seeded_rng(batch)
        g = rng.normal(size=(batch, 16))
        x = rng.uniform(size=(batch, 4, 2)) * 0.5
        with np.errstate(divide="ignore", invalid="ignore"):
            compiled_loss, compiled_grads = program(g, x)
            eager_loss, eager_grads = _eager_reference(model, g, x)
        if batch == 0:
            # mean over an empty batch is nan either way — compare bytes
            assert compiled_loss.tobytes() == eager_loss.tobytes()
        else:
            _assert_bitwise((compiled_loss, compiled_grads),
                            (eager_loss, eager_grads), context=f"batch={batch}")

    def test_weighted_gradients_bitwise(self):
        model = SDNet(boundary_size=16, hidden_size=8, trunk_layers=1,
                      embedding_channels=(), rng=2)
        weight = 0.37
        program = CompiledValueAndGrad(
            _loss_program(model), model, grad_transform=lambda l: weight * l,
        )
        rng = seeded_rng(9)
        g = rng.normal(size=(4, 16))
        x = rng.uniform(size=(4, 5, 2)) * 0.5
        _assert_bitwise(program(g, x), _eager_reference(model, g, x, weight=weight))

    def test_inplace_parameter_updates_flow_without_retrace(self):
        """Optimizer-style in-place updates keep the compiled program fresh."""

        model = SDNet(boundary_size=16, hidden_size=10, trunk_layers=2,
                      embedding_channels=(2,), rng=4)
        program = CompiledValueAndGrad(
            _loss_program(model), model, grad_transform=lambda l: 1.0 * l,
        )
        rng = seeded_rng(1)
        g = rng.normal(size=(6, 16))
        x = rng.uniform(size=(6, 4, 2)) * 0.5
        for step in range(3):
            compiled = program(g, x)
            _assert_bitwise(compiled, _eager_reference(model, g, x),
                            context=f"step={step}")
            _, grads = compiled
            for param, garr in zip(model.parameters(), grads):
                param.data -= 1e-3 * garr
        assert program.stats.traces == 3  # one bucket, three probes, no retrace

    def test_stacked_equals_loop_laplacian(self, rng):
        """The direction-stacked jet layout reproduces the loop bitwise."""

        model = SDNet(boundary_size=16, hidden_size=12, trunk_layers=2,
                      embedding_channels=(2,), rng=8)
        g = Tensor(rng.normal(size=(3, 16)))
        x = Tensor(rng.uniform(size=(3, 5, 2)) * 0.5)
        stacked = model.laplacian_taylor(g, x, stacked=True)
        looped = model.laplacian_taylor(g, x, stacked=False)
        assert stacked.data.tobytes() == looped.data.tobytes()
        loss_s = ops.mean(stacked * stacked)
        loss_l = ops.mean(looped * looped)
        grads_s = grad(loss_s, model.parameters())
        grads_l = grad(loss_l, model.parameters())
        for a, b in zip(grads_s, grads_l):
            np.testing.assert_allclose(a.data, b.data, atol=1e-12)


class TestGenericValueAndGrad:
    def test_mlp_regression_loss_bitwise(self):
        """The jet compiler is generic: any primitive-built loss compiles."""

        mlp = MLP([3, 8, 8, 1], activation="gelu", rng=np.random.default_rng(0))
        target_rng = seeded_rng(12)
        y = target_rng.normal(size=(64, 1))

        def loss_fn(x):
            diff = mlp(x) - Tensor(y[: x.shape[0]])
            return ops.mean(diff * diff)

        program = compile_value_and_grad(loss_fn, mlp, validate=True)
        rng = seeded_rng(7)
        for batch in (6, 3, 4):
            x = rng.normal(size=(batch, 3))
            compiled_loss, compiled_grads = program(x)
            loss = loss_fn(Tensor(x))
            grads = grad(loss, mlp.parameters())
            _assert_bitwise(
                (compiled_loss, compiled_grads),
                (loss.data, [t.data for t in grads]),
                context=f"mlp batch={batch}",
            )

    def test_tanh_mlp_loss_bitwise(self):
        mlp = MLP([2, 6, 1], activation="tanh", rng=np.random.default_rng(3))

        def loss_fn(x):
            out = mlp(x)
            return ops.mean(out * out)

        program = compile_value_and_grad(loss_fn, mlp)
        x = seeded_rng(4).normal(size=(5, 2))
        compiled_loss, compiled_grads = program(x)
        loss = loss_fn(Tensor(x))
        grads = grad(loss, mlp.parameters())
        _assert_bitwise((compiled_loss, compiled_grads),
                        (loss.data, [t.data for t in grads]))


class TestPinnLossEngine:
    def test_retrace_refreshes_replaced_parameters(self):
        """Wholesale Parameter replacement + retrace() keeps gradients live."""

        from repro.nn.module import Parameter

        model = SDNet(boundary_size=16, hidden_size=8, trunk_layers=1,
                      embedding_channels=(), rng=3)
        program = CompiledValueAndGrad(
            _loss_program(model), model, grad_transform=lambda l: 1.0 * l,
        )
        rng = seeded_rng(11)
        g = rng.normal(size=(4, 16))
        x = rng.uniform(size=(4, 5, 2)) * 0.5
        program(g, x)
        # replace every Parameter object (not an in-place update)
        for module in model.modules():
            for name, param in list(module._parameters.items()):
                setattr(module, name, Parameter(param.data.copy() * 1.1))
        program.retrace()
        _assert_bitwise(program(g, x), _eager_reference(model, g, x),
                        context="after parameter replacement")

    def test_pde_weight_change_invalidates_compiled_program(self):
        """Weight annealing must not serve gradients traced at the old weight."""

        model = SDNet(boundary_size=16, hidden_size=8, trunk_layers=1,
                      embedding_channels=(), rng=7)
        loss = PinnLoss(pde_weight=1.0, engine=True)
        rng = seeded_rng(13)
        g = rng.normal(size=(3, 16))
        x = rng.uniform(size=(3, 4, 2)) * 0.5
        loss.pde_term_and_grads(model, Tensor(g), Tensor(x))
        loss.pde_weight = 2.0
        _, grads_c = loss.pde_term_and_grads(model, Tensor(g), Tensor(x))
        _, grads_e = _eager_reference(model, g, x, weight=2.0)
        for a, b in zip(grads_c, grads_e):
            assert a.tobytes() == b.tobytes()

    def test_pde_term_and_grads_parity(self):
        model = SDNet(boundary_size=16, hidden_size=10, trunk_layers=2,
                      embedding_channels=(2,), rng=6)
        eager_loss = PinnLoss(pde_weight=0.5)
        engine_loss = PinnLoss(pde_weight=0.5, engine=True)
        rng = seeded_rng(2)
        g = rng.normal(size=(4, 16))
        x = rng.uniform(size=(4, 5, 2)) * 0.5
        value_e, grads_e = eager_loss.pde_term_and_grads(model, Tensor(g), Tensor(x))
        value_c, grads_c = engine_loss.pde_term_and_grads(model, Tensor(g), Tensor(x))
        assert value_e == value_c
        for a, b in zip(grads_e, grads_c):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("batch", [1, 3, 8, 16])
    def test_data_term_and_grads_parity(self, batch):
        """The compiled data MSE and its gradients are the eager tape's bytes."""

        model = SDNet(boundary_size=16, hidden_size=10, trunk_layers=2,
                      embedding_channels=(2,), rng=6)
        rng = seeded_rng(batch)
        g = rng.normal(size=(batch, 16))
        x = rng.uniform(size=(batch, 7, 2)) * 0.5
        u = rng.normal(size=(batch, 7))
        tensors = (Tensor(g), Tensor(x), Tensor(u))
        value_e, grads_e = PinnLoss().data_term_and_grads(model, *tensors)
        value_c, grads_c = PinnLoss(engine=True).data_term_and_grads(model, *tensors)
        _assert_bitwise(
            (np.float64(value_c), grads_c), (np.float64(value_e), grads_e),
            context=f"(batch={batch})",
        )

    def test_engine_requires_taylor_method(self):
        with pytest.raises(ValueError, match="taylor"):
            PinnLoss(engine=True, laplacian_method="autograd")

    def test_engine_rejects_models_without_taylor_path(self):
        loss = PinnLoss(engine=True)
        mlp = MLP([2, 4, 1], rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="laplacian_taylor"):
            loss.pde_term_and_grads(mlp, np.zeros((2, 2)), np.zeros((2, 3, 2)))


class TestTrainerEngine:
    def test_engine_training_is_bitwise_identical(self, tiny_dataset):
        from repro.training import Trainer, TrainingConfig

        states = {}
        histories = {}
        for engine in (False, True):
            model = SDNet(
                boundary_size=tiny_dataset.grid.boundary_size, hidden_size=10,
                trunk_layers=1, embedding_channels=(2,), rng=0,
            )
            config = TrainingConfig(
                epochs=1, batch_size=4, data_points_per_domain=8,
                collocation_points_per_domain=8, max_lr=3e-3, seed=0,
                engine=engine,
            )
            histories[engine] = Trainer(model, config, tiny_dataset).fit()
            states[engine] = model.state_dict()
        assert histories[False].train_loss == histories[True].train_loss
        assert histories[False].train_pde_loss == histories[True].train_pde_loss
        for name in states[False]:
            assert states[False][name].tobytes() == states[True][name].tobytes()
