"""Parallel plan execution: wave schedules, bitwise parity, plan ownership."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.autodiff import Tensor, no_grad
from repro.engine import (
    CompiledValueAndGrad,
    ExecutionPlan,
    ParallelExecutionPlan,
    compile_module,
    schedule_waves,
)
from repro.models import SDNet
from repro.nn import MLP
from repro.pde.losses import laplace_residual_loss
from repro.utils import seeded_rng


def _sdnet():
    return SDNet(boundary_size=32, hidden_size=24, trunk_layers=3,
                 embedding_channels=(2,), rng=5)


def _sdnet_inputs(batch=6, points=11, seed=0):
    rng = seeded_rng(seed)
    return (
        rng.normal(size=(batch, 32)),
        rng.uniform(size=(points, 2)) * 0.5,
    )


class TestScheduleWaves:
    def test_waves_partition_steps_and_respect_dependencies(self):
        compiled = compile_module(_sdnet())
        graph = compiled.graph_for(*_sdnet_inputs())
        waves = schedule_waves(graph)

        executable = [n for n in graph if not n.is_placeholder and not n.is_constant]
        flattened = [i for wave in waves for i in wave]
        # Every step appears exactly once, and wave-major order is a
        # topological refinement: within a wave indices keep graph order.
        assert sorted(flattened) == list(range(len(executable)))
        assert all(list(wave) == sorted(wave) for wave in waves)

        wave_of = {}
        for depth, wave in enumerate(waves):
            for step in wave:
                wave_of[executable[step].id] = depth
        for step, node in enumerate(executable):
            for parent in node.inputs:
                if parent in wave_of:  # compute parents live in earlier waves
                    assert wave_of[parent] < wave_of[node.id]

    def test_split_architecture_has_parallel_waves(self):
        # SDNet's boundary branch and trunk branch are independent until the
        # combine, so at least one wave must hold two or more steps.
        compiled = compile_module(_sdnet())
        graph = compiled.graph_for(*_sdnet_inputs())
        assert any(len(wave) > 1 for wave in schedule_waves(graph))


    def test_served_inference_program_has_nothing_to_overlap(self):
        """Why ``Server(engine_parallel=)`` is gone: with the points folded in,
        the served graph is one chain.  Its only wider wave holds the two
        slices of the boundary convolution's circular pad (views of a few
        hundred bytes), so no wave ever has two steps worth a pool thread —
        a parallel plan of it would run exactly the sequential schedule."""

        from repro.mosaic import MosaicGeometry
        from repro.mosaic.solvers import inference_program

        geometry = MosaicGeometry(subdomain_points=9, subdomain_extent=0.5,
                                  steps_x=4, steps_y=4)
        rows = seeded_rng(0).normal(size=(32, 32))
        model = _sdnet()  # the programs live as long as their model
        for points in (geometry.center_line_local_coordinates(),
                       geometry.interior_local_coordinates()):
            graph = inference_program(model, points).graph_for(rows)
            executable = [n for n in graph if not n.is_placeholder and not n.is_constant]
            waves = schedule_waves(graph)
            wide = [wave for wave in waves if len(wave) > 1]
            assert [[executable[i].op for i in wave] for wave in wide] == [["getitem"] * 2]
            plan = ParallelExecutionPlan(graph)
            assert all(sum(plan._offload[i] for i in wave) < 2 for wave in waves)


class TestParallelParity:
    def test_parallel_plan_is_bitwise_identical(self):
        compiled = compile_module(_sdnet())
        arrays = [np.asarray(a) for a in _sdnet_inputs(batch=8, points=13, seed=1)]
        graph = compiled.graph_for(*arrays)
        sequential = ExecutionPlan(graph).run(list(arrays))
        # offload_bytes=0 forces every wave through the pool-overlap path.
        parallel = ParallelExecutionPlan(graph, offload_bytes=0).run(list(arrays))
        assert len(sequential) == len(parallel)
        for ours, theirs in zip(parallel, sequential):
            assert ours.shape == theirs.shape
            assert ours.tobytes() == theirs.tobytes()

    def test_compile_module_parallel_matches_eager(self):
        model = _sdnet()
        compiled = compile_module(model, parallel=True)
        inputs = _sdnet_inputs(batch=5, points=9, seed=2)
        ours = compiled.predict(*inputs)
        with no_grad():
            theirs = model(*[Tensor(np.asarray(a)) for a in inputs]).data
        assert ours.tobytes() == theirs.tobytes()
        # Repeated calls reuse the same parallel plan and stay identical.
        assert compiled.predict(*inputs).tobytes() == theirs.tobytes()

    def test_offloaded_step_errors_propagate(self):
        compiled = compile_module(_sdnet())
        arrays = [np.asarray(a) for a in _sdnet_inputs()]
        plan = ParallelExecutionPlan(compiled.graph_for(*arrays), offload_bytes=0)
        with pytest.raises(Exception):
            plan.run([arrays[0][:, :-1], arrays[1]])  # wrong input shape


class TestPlanOwnership:
    def _run_in_thread(self, fn):
        box = {}

        def target():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - relayed to the test
                box["error"] = exc

        thread = threading.Thread(target=target)
        thread.start()
        thread.join()
        return box.get("error")

    def test_execution_plan_rejects_second_thread(self):
        compiled = compile_module(_sdnet())
        arrays = [np.asarray(a) for a in _sdnet_inputs()]
        plan = ExecutionPlan(compiled.graph_for(*arrays))
        plan.run(list(arrays))  # binds the plan to this thread

        error = self._run_in_thread(lambda: plan.run(list(arrays)))
        assert isinstance(error, RuntimeError)
        assert "one plan per thread" in str(error) or "not thread-safe" in str(error)

    def test_parallel_plan_rejects_second_thread(self):
        compiled = compile_module(_sdnet())
        arrays = [np.asarray(a) for a in _sdnet_inputs()]
        plan = ParallelExecutionPlan(compiled.graph_for(*arrays), offload_bytes=0)
        plan.run(list(arrays))
        error = self._run_in_thread(lambda: plan.run(list(arrays)))
        assert isinstance(error, RuntimeError)

    def test_bucketed_plan_rejects_second_thread(self):
        model = SDNet(boundary_size=16, hidden_size=10, trunk_layers=2,
                      embedding_channels=(2,), rng=3)
        program = CompiledValueAndGrad(
            lambda g, x: laplace_residual_loss(model, g, x, method="taylor"),
            model, grad_transform=lambda l: 1.0 * l,
        )
        rng = seeded_rng(0)
        g = rng.normal(size=(8, 16))
        x = rng.uniform(size=(8, 4, 2)) * 0.5
        program(g, x)  # builds + binds this thread's bucketed plan
        plans = program._plans()._entries
        bucketed = next(
            plan for key, (plan, _) in plans.items() if key[0] == "bucket"
        )
        # The ownership check fires before any buffer is touched, so no
        # arrays are needed to observe the rejection.
        error = self._run_in_thread(lambda: bucketed.run([], bucketed.template.capacity))
        assert isinstance(error, RuntimeError)
        assert "not thread-safe" in str(error)

    def test_per_thread_compiled_calls_still_work(self):
        # CompiledModule hands each thread its own plan; concurrent calls
        # through the module must not trip the ownership check.
        model = _sdnet()
        compiled = compile_module(model)
        inputs = _sdnet_inputs(batch=4, points=7, seed=3)
        expected = compiled.predict(*inputs).tobytes()
        errors, outputs = [], []

        def worker():
            try:
                outputs.append(compiled.predict(*inputs).tobytes())
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert all(out == expected for out in outputs)
