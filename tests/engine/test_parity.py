"""Property-based engine parity: CompiledModule(x) == module(x), bitwise.

Random MLP / SDNet / ConcatSolver architectures, batch sizes including the
1-row and 0-row edge cases, and mixed input dtypes are swept with seeded
generators; every compiled output must be bit-for-bit equal to the eager
forward pass (the engine's documented parity contract).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff import Tensor, no_grad
from repro.engine import compile_module
from repro.models import ConcatSolver, SDNet
from repro.nn import MLP
from repro.utils import seeded_rng

BATCH_SIZES = (0, 1, 3)


def _bitwise(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _eager(module, *inputs):
    with no_grad():
        return module(*[Tensor(x) for x in inputs]).data


@pytest.mark.parametrize("case", range(8))
def test_random_mlp_architectures(case):
    rng = seeded_rng(1000 + case)
    depth = int(rng.integers(1, 4))
    sizes = [int(rng.integers(1, 6))] + [int(rng.integers(1, 12)) for _ in range(depth)] + [1]
    activation = ["gelu", "tanh", "relu", "sine"][case % 4]
    mlp = MLP(sizes, activation=activation, rng=rng)
    compiled = compile_module(mlp, validate=True)
    for batch in BATCH_SIZES:
        x = rng.normal(size=(batch, sizes[0]))
        assert _bitwise(compiled(x).data, _eager(mlp, x)), (
            f"MLP {sizes} ({activation}) diverged at batch {batch}"
        )


@pytest.mark.parametrize("case", range(6))
def test_random_sdnet_architectures(case):
    rng = seeded_rng(2000 + case)
    boundary = int(rng.integers(2, 10)) * 4
    channels = [(), (2,), (2, 3)][case % 3]
    net = SDNet(
        boundary_size=boundary,
        hidden_size=int(rng.integers(4, 20)),
        trunk_layers=int(rng.integers(1, 4)),
        embedding_channels=channels,
        conv_kernel_size=[3, 5][case % 2],
        activation=["gelu", "tanh"][case % 2],
        rng=rng,
    )
    compiled = compile_module(net, validate=True)
    q = int(rng.integers(1, 9))
    for batch in BATCH_SIZES:
        g = rng.normal(size=(batch, boundary))
        x = rng.normal(size=(batch, q, 2))
        assert _bitwise(compiled(g, x).data, _eager(net, g, x)), (
            f"SDNet(boundary={boundary}, channels={channels}) diverged "
            f"at batch {batch}"
        )


@pytest.mark.parametrize("case", range(3))
def test_random_concat_baseline(case):
    rng = seeded_rng(3000 + case)
    boundary = int(rng.integers(2, 8)) * 4
    model = ConcatSolver(
        boundary_size=boundary,
        hidden_size=int(rng.integers(4, 16)),
        trunk_layers=int(rng.integers(1, 3)),
        rng=rng,
    )
    compiled = compile_module(model, validate=True)
    for batch in BATCH_SIZES:
        g = rng.normal(size=(batch, boundary))
        x = rng.normal(size=(batch, 4, 2))
        assert _bitwise(compiled(g, x).data, _eager(model, g, x))


def test_unbatched_inputs_match():
    rng = seeded_rng(7)
    net = SDNet(boundary_size=16, hidden_size=8, trunk_layers=1,
                embedding_channels=(2,), rng=rng)
    compiled = compile_module(net, validate=True)
    g = rng.normal(size=16)
    x = rng.normal(size=(5, 2))
    assert _bitwise(compiled(g, x).data, net.predict(g, x))
    # the unbatched signature (no common leading dimension: one exact trace)
    # coexists with the batched template (three probe traces)
    gb = rng.normal(size=(3, 16))
    xb = rng.normal(size=(3, 5, 2))
    assert _bitwise(compiled(gb, xb).data, net.predict(gb, xb))
    assert compiled.stats.traces == 1 + 3
    assert compiled.stats.bucket_templates == 1 and compiled.stats.bucket_fallbacks == 0


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
def test_input_dtypes_coerce_like_eager(dtype):
    """Non-float64 inputs convert exactly as the eager Tensor constructor."""

    rng = seeded_rng(11)
    mlp = MLP([4, 8, 1], rng=rng)
    compiled = compile_module(mlp, validate=True)
    x = (rng.normal(size=(6, 4)) * 8).astype(dtype)
    assert _bitwise(compiled(x).data, _eager(mlp, x))


def test_broadcast_batch_promotion_matches():
    """g batch 1 against x batch 3 exercises the broadcast_to kernel."""

    rng = seeded_rng(13)
    net = SDNet(boundary_size=16, hidden_size=8, trunk_layers=1,
                embedding_channels=(), rng=rng)
    compiled = compile_module(net, validate=True)
    g = rng.normal(size=(1, 16))
    x = rng.normal(size=(3, 5, 2))
    assert _bitwise(compiled(g, x).data, _eager(net, g, x))


def test_validate_wraps_inputs_like_trace():
    """validate=True must feed the eager check Tensors, not raw ndarrays."""

    from repro.autodiff import ops
    from repro.nn import Module, Parameter

    class RawOperator(Module):
        def __init__(self):
            super().__init__()
            self.w = Parameter(np.array([2.0, 3.0]))

        def forward(self, x):
            return x * self.w  # ndarray * Tensor would take numpy's path

    net = RawOperator()
    compiled = compile_module(net, validate=True)
    x = np.array([1.5, -0.5])
    assert _bitwise(compiled(x).data, _eager(net, x))


def test_parameter_update_after_retrace():
    rng = seeded_rng(17)
    mlp = MLP([3, 6, 1], rng=rng)
    compiled = compile_module(mlp)
    x = rng.normal(size=(4, 3))
    compiled(x)
    state = {name: value * 2.0 for name, value in mlp.state_dict().items()}
    mlp.load_state_dict(state)
    compiled.retrace()
    assert _bitwise(compiled(x).data, _eager(mlp, x))
