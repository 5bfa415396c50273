"""Per-kernel profiling: accumulator semantics and bitwise parity on/off.

The load-bearing contract: enabling ``profile=`` on a compiled artifact
changes *nothing* about what it computes — same kernels, same buffers, same
floating-point order — it only wraps each plan step in a clock pair.  Both
compiled surfaces (the inference ``CompiledModule`` and the training jet
``CompiledValueAndGrad``) are asserted bitwise against their unprofiled
selves here.
"""

import numpy as np
import pytest

from repro.autodiff import Tensor, grad
from repro.engine import CompiledValueAndGrad, compile_module
from repro.nn import MLP
from repro.obs import KernelProfiler
from repro.pde.losses import laplace_residual_loss
from repro.utils import seeded_rng


class TestKernelProfiler:
    def test_record_accumulates_per_op(self):
        p = KernelProfiler()
        p.record("affine", 0.010, 100)
        p.record("affine", 0.030, 100)
        p.record("add", 0.005, 40)
        top = p.top_kernels()
        assert [row["op"] for row in top] == ["affine", "add"]
        affine = top[0]
        assert affine["calls"] == 2
        assert affine["seconds"] == pytest.approx(0.040)
        assert affine["bytes"] == 200
        assert affine["fraction"] == pytest.approx(0.040 / 0.045)
        assert p.total_calls == 3
        assert p.total_seconds == pytest.approx(0.045)

    def test_top_kernels_limit(self):
        p = KernelProfiler()
        for i in range(5):
            p.record(f"op{i}", float(i + 1), 0)
        top = p.top_kernels(n=2)
        assert [row["op"] for row in top] == ["op4", "op3"]

    def test_events_and_merge(self):
        a, b = KernelProfiler(), KernelProfiler()
        a.record("affine", 0.01, 10)
        a.count("plan_build")
        b.record("affine", 0.02, 20)
        b.record("add", 0.01, 5)
        b.count("plan_build")
        b.count("plan_eviction", 2)
        a.merge(b)
        assert a.events() == {"plan_build": 2, "plan_eviction": 2}
        assert a.total_calls == 3
        top = {row["op"]: row for row in a.top_kernels()}
        assert top["affine"]["calls"] == 2
        assert top["affine"]["bytes"] == 30

    def test_report_and_as_dict(self):
        p = KernelProfiler()
        p.record("affine", 0.01, 2_000_000)
        p.count("plan_build")
        report = p.report()
        assert "top kernels" in report and "affine" in report
        assert "plan_build=1" in report
        d = p.as_dict()
        assert d["events"] == {"plan_build": 1}
        assert d["kernels"][0]["op"] == "affine"

    def test_clear(self):
        p = KernelProfiler()
        p.record("x", 1.0, 1)
        p.count("e")
        p.clear()
        assert p.total_calls == 0 and p.events() == {}


def _mlp(seed=0):
    return MLP([6, 16, 16, 1], rng=seeded_rng(seed))


class TestCompiledModuleParity:
    def test_profile_on_is_bitwise_identical(self):
        model = _mlp()
        plain = compile_module(model)
        profiled = compile_module(model, profile=True)
        rng = seeded_rng(5)
        for batch in (1, 4, 9):
            x = rng.normal(size=(batch, 6))
            a = plain(Tensor(x)).data
            b = profiled(Tensor(x)).data
            assert a.tobytes() == b.tobytes()
        profiler = profiled.profiler
        assert profiler is not None
        assert profiler.total_calls > 0
        assert profiler.events().get("plan_build", 0) >= 1
        assert all(row["bytes"] > 0 for row in profiler.top_kernels())

    def test_kernel_report_requires_profiling(self):
        plain = compile_module(_mlp())
        with pytest.raises(RuntimeError):
            plain.kernel_report()

    def test_unprofiled_module_has_no_profiler(self):
        assert compile_module(_mlp()).profiler is None


class TestCompiledJetParity:
    def _program(self, model, profile):
        return CompiledValueAndGrad(
            lambda g, x: laplace_residual_loss(model, g, x, method="taylor"),
            model,
            profile=profile,
        )

    def test_profile_on_is_bitwise_identical(self):
        from repro.models import SDNet

        model = SDNet(
            boundary_size=16, hidden_size=10, trunk_layers=1,
            embedding_channels=(2,), rng=3,
        )
        plain = self._program(model, profile=False)
        profiled = self._program(model, profile=True)
        rng = seeded_rng(9)
        for batch in (3, 5):
            g = rng.normal(size=(batch, 16))
            x = rng.uniform(size=(batch, 4, 2)) * 0.5
            loss_a, grads_a = plain(g, x)
            loss_b, grads_b = profiled(g, x)
            assert loss_a.tobytes() == loss_b.tobytes()
            for ga, gb in zip(grads_a, grads_b):
                assert ga.tobytes() == gb.tobytes()
        profiler = profiled.profiler
        assert profiler.total_calls > 0
        assert profiler.events().get("plan_build", 0) >= 1
        assert "top kernels" in profiled.kernel_report()

    def test_kernel_report_requires_profiling(self):
        model = _mlp()
        program = CompiledValueAndGrad(
            lambda x: (model(x) * model(x)).sum(), model,
        )
        with pytest.raises(RuntimeError):
            program.kernel_report()
