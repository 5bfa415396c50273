"""Bucketed batch-dimension plans and the plan-cache memory budget."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    BUCKET_ROWS,
    CompiledValueAndGrad,
    ExecutionPlan,
    PlanCache,
    bucket_capacity,
    compile_module,
)
from repro.engine.bucketing import BucketingError
from repro.autodiff import Tensor, no_grad
from repro.models import SDNet
from repro.nn import MLP
from repro.pde.losses import laplace_residual_loss
from repro.utils import seeded_rng


def _program_for(model, **options):
    return CompiledValueAndGrad(
        lambda g, x: laplace_residual_loss(model, g, x, method="taylor"),
        model, grad_transform=lambda l: 1.0 * l, **options,
    )


class TestBucketCapacity:
    def test_power_of_two_buckets(self):
        assert [bucket_capacity(b) for b in (1, 2, 3, 4, 5, 8, 9, 17, 32, 33)] == \
            [1, 2, 4, 4, 8, 8, 16, 32, 32, 64]

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            bucket_capacity(0)


class TestBucketedReuse:
    def test_plans_reused_across_batch_sizes_without_retracing(self):
        """>= 3 distinct collocation batch sizes share one bucket template."""

        model = SDNet(boundary_size=16, hidden_size=10, trunk_layers=2,
                      embedding_channels=(2,), rng=3)
        program = _program_for(model)
        rng = seeded_rng(0)
        for batch in (20, 32, 17, 25, 29):  # all in the capacity-32 bucket
            g = rng.normal(size=(batch, 16))
            x = rng.uniform(size=(batch, 4, 2)) * 0.5
            program(g, x)
        stats = program.stats
        assert stats.calls == 5
        assert stats.bucket_templates == 1
        assert stats.traces == 3           # two fit probes + one verify, once
        assert stats.plan_builds == 1      # one bucketed plan on this thread
        # capacity (32) is built with the plan; the other four sizes add
        # view-specializations
        assert stats.specializations == 4
        assert stats.bucket_fallbacks == 0

    def test_distinct_buckets_get_distinct_templates(self):
        model = SDNet(boundary_size=16, hidden_size=8, trunk_layers=1,
                      embedding_channels=(), rng=1)
        program = _program_for(model)
        rng = seeded_rng(1)
        for batch in (3, 6, 12):  # buckets 4, 8, 16
            g = rng.normal(size=(batch, 16))
            x = rng.uniform(size=(batch, 4, 2)) * 0.5
            program(g, x)
        assert program.stats.bucket_templates == 3
        assert program.stats.traces == 9  # 3 probes per bucket

    def test_bucketing_disabled_traces_per_shape(self):
        model = SDNet(boundary_size=16, hidden_size=8, trunk_layers=1,
                      embedding_channels=(), rng=1)
        program = _program_for(model, bucketing=False)
        rng = seeded_rng(2)
        for batch in (5, 6, 7):
            g = rng.normal(size=(batch, 16))
            x = rng.uniform(size=(batch, 4, 2)) * 0.5
            program(g, x)
        assert program.stats.bucket_templates == 0
        assert program.stats.traces == 3

    def test_point_budget_change_is_a_new_template(self):
        """The bucket key includes every non-batch extent (q, boundary)."""

        model = SDNet(boundary_size=16, hidden_size=8, trunk_layers=1,
                      embedding_channels=(), rng=1)
        program = _program_for(model)
        rng = seeded_rng(3)
        for q in (4, 6):
            g = rng.normal(size=(6, 16))
            x = rng.uniform(size=(6, q, 2)) * 0.5
            program(g, x)
        assert program.stats.bucket_templates == 2

    def test_retrace_drops_templates(self):
        model = SDNet(boundary_size=16, hidden_size=8, trunk_layers=1,
                      embedding_channels=(), rng=1)
        program = _program_for(model)
        rng = seeded_rng(4)
        g = rng.normal(size=(6, 16))
        x = rng.uniform(size=(6, 4, 2)) * 0.5
        program(g, x)
        program.retrace()
        program(g, x)
        assert program.stats.traces == 6
        assert program.stats.plan_bytes > 0

    def test_bucketed_outputs_do_not_alias_plan_buffers(self):
        model = SDNet(boundary_size=16, hidden_size=8, trunk_layers=1,
                      embedding_channels=(), rng=5)
        program = _program_for(model)
        rng = seeded_rng(5)
        g = rng.normal(size=(6, 16))
        x = rng.uniform(size=(6, 4, 2)) * 0.5
        loss_a, grads_a = program(g, x)
        snapshot = [a.copy() for a in grads_a]
        program(rng.normal(size=(6, 16)), rng.uniform(size=(6, 4, 2)))
        for kept, snap in zip(grads_a, snapshot):
            np.testing.assert_array_equal(kept, snap)


class TestTemplateFailureFallsBack:
    def test_value_dependent_program_falls_back_to_exact_plans(self):
        """A program whose constants defy the affine laws still runs right."""

        mlp = MLP([2, 4, 1], rng=np.random.default_rng(0))
        from repro.autodiff import Tensor, ops

        def loss_fn(x):
            out = mlp(x)
            # a batch-dependent constant that is neither affine nor
            # reciprocal-affine in the batch size
            weird = float(np.sqrt(x.shape[0]))
            return ops.mean(out * out) * weird

        program = CompiledValueAndGrad(loss_fn, mlp)
        rng = seeded_rng(6)
        for batch in (5, 7):
            x = rng.normal(size=(batch, 2))
            compiled_loss, _ = program(x)
            eager_loss, _ = program.eager(x)
            assert compiled_loss.tobytes() == eager_loss.tobytes()
        assert program.stats.bucket_fallbacks >= 1
        assert program.stats.bucket_templates == 0


class TestPlanCache:
    class _FakePlan:
        def __init__(self, nbytes):
            self.buffer_bytes = nbytes

    def test_lru_eviction_respects_byte_budget(self):
        evicted = []
        cache = PlanCache(max_bytes=100, on_evict=lambda k, n: evicted.append((k, n)))
        cache.put("a", self._FakePlan(40))
        cache.put("b", self._FakePlan(40))
        cache.put("c", self._FakePlan(40))  # evicts "a"
        assert evicted == [("a", 40)]
        assert cache.bytes_in_use == 80
        assert cache.get("a") is None and cache.get("b") is not None

    def test_get_refreshes_recency(self):
        cache = PlanCache(max_bytes=100)
        cache.put("a", self._FakePlan(40))
        cache.put("b", self._FakePlan(40))
        cache.get("a")
        cache.put("c", self._FakePlan(40))  # evicts "b", not "a"
        assert cache.get("a") is not None
        assert cache.get("b") is None

    def test_single_oversized_plan_is_kept(self):
        cache = PlanCache(max_bytes=10)
        cache.put("big", self._FakePlan(1000))
        assert cache.get("big") is not None
        assert len(cache) == 1

    def test_unbounded_by_default(self):
        cache = PlanCache()
        for index in range(64):
            cache.put(index, self._FakePlan(1 << 20))
        assert len(cache) == 64


class TestCompiledModulePlanBudget:
    """Exact-shape plans (row counts over BUCKET_ROWS) under a byte budget."""

    def test_eviction_counters_and_bounded_memory(self):
        mlp = MLP([3, 8, 1], rng=np.random.default_rng(0))
        probe = ExecutionPlan(compile_module(mlp).graph_for(np.zeros((40, 3))))
        budget = int(probe.buffer_bytes * 2.5)
        compiled = compile_module(mlp, max_plan_bytes=budget)
        rng = seeded_rng(7)
        expected = {}
        for batch in range(BUCKET_ROWS + 1, BUCKET_ROWS + 9):
            x = rng.normal(size=(batch, 3))
            with no_grad():
                eager_out = mlp(Tensor(x)).data.copy()
            expected[batch] = (eager_out, compiled.predict(x))
        for batch, (eager, engine) in expected.items():
            assert eager.tobytes() == engine.tobytes(), f"batch {batch} drifted"
        stats = compiled.stats
        assert stats.plan_evictions > 0
        assert stats.plan_bytes <= budget
        assert stats.plan_bytes_evicted > 0
        assert stats.plan_bytes >= 0

    def test_evicted_plans_rebuild_transparently(self):
        mlp = MLP([2, 4, 1], rng=np.random.default_rng(1))
        compiled = compile_module(mlp, max_plan_bytes=1)  # evict almost always
        rng = seeded_rng(8)
        a, b = rng.normal(size=(BUCKET_ROWS + 3, 2)), rng.normal(size=(BUCKET_ROWS + 5, 2))
        with no_grad():
            expected_a = mlp(Tensor(a)).data.copy()
            expected_b = mlp(Tensor(b)).data.copy()
        for _ in range(3):
            assert compiled.predict(a).tobytes() == expected_a.tobytes()
            assert compiled.predict(b).tobytes() == expected_b.tobytes()
        assert compiled.stats.plan_evictions >= 4
        # graphs are cached independently of plans: no re-tracing happened
        assert compiled.stats.traces == 2


class TestValueAndGradPlanBudget:
    def test_jet_plan_cache_evicts_under_budget(self):
        model = SDNet(boundary_size=16, hidden_size=8, trunk_layers=1,
                      embedding_channels=(), rng=9)
        program = _program_for(model, max_plan_bytes=1)
        rng = seeded_rng(9)
        for batch in (3, 6, 12, 3, 6):  # three buckets, revisited
            g = rng.normal(size=(batch, 16))
            x = rng.uniform(size=(batch, 4, 2)) * 0.5
            loss_c, grads_c = program(g, x)
            loss_e, grads_e = program.eager(g, x)
            assert loss_c.tobytes() == loss_e.tobytes()
            for a, b in zip(grads_c, grads_e):
                assert a.tobytes() == b.tobytes()
        assert program.stats.plan_evictions >= 2
        # templates survive eviction: revisits re-specialize, never re-trace
        assert program.stats.traces == 9
