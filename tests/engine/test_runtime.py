"""Runtime behaviour: plan caching, threading, solver/server integration."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.autodiff import Tensor, no_grad
from repro.engine import (
    BUCKET_ROWS,
    CompiledModule,
    CompiledValueAndGrad,
    ExecutionPlan,
    compile_module,
)
from repro.mosaic import MosaicFlowPredictor, MosaicGeometry, SDNetSubdomainSolver
from repro.mosaic.solvers import GEMM_STABLE_ROWS, inference_program
from repro.models import SDNet
from repro.nn import MLP
from repro.pde.losses import laplace_residual_loss
from repro.mosaic.core import Session
from repro.serving import Server, SolveRequest
from repro.serving.compute import lattice_run
from repro.utils import seeded_rng


@pytest.fixture(scope="module")
def engine_sdnet(request):
    geometry = MosaicGeometry(subdomain_points=9, subdomain_extent=0.5,
                              steps_x=4, steps_y=4)
    net = SDNet(
        boundary_size=geometry.subdomain_grid().boundary_size,
        hidden_size=12,
        trunk_layers=2,
        embedding_channels=(2,),
        rng=7,
    )
    return geometry, net


def _loop(geometry, seed=0):
    rng = seeded_rng(seed)
    w = rng.normal(size=3)
    return geometry.boundary_from_function(
        lambda x, y: w[0] * (x * x - y * y) + w[1] * x * y + w[2] * (x - 2.0 * y)
    )


class TestPlanCaching:
    def test_row_counts_share_one_template_and_one_plan(self):
        mlp = MLP([3, 8, 1], rng=np.random.default_rng(0))
        compiled = compile_module(mlp)
        rng = seeded_rng(1)
        for rows in (4, 4, 9, 1, BUCKET_ROWS):
            x = rng.normal(size=(rows, 3))
            with no_grad():
                assert compiled.predict(x).tobytes() == mlp(Tensor(x)).data.tobytes()
        stats = compiled.stats
        assert stats.traces == 3  # two fit probes and the verification probe
        assert stats.bucket_templates == 1 and stats.bucket_fallbacks == 0
        assert stats.plan_builds == 1
        assert stats.specializations == 3  # 4, 9 and 1 rows; capacity came with the plan
        assert stats.calls == 5

    def test_exact_plans_only_over_capacity_or_without_common_rows(self):
        mlp = MLP([3, 8, 1], rng=np.random.default_rng(0))
        compiled = compile_module(mlp)
        for rows in (BUCKET_ROWS + 1, BUCKET_ROWS + 1, 40):
            compiled(np.zeros((rows, 3)))
        assert compiled.stats.traces == 2
        assert compiled.stats.plan_builds == 2
        assert compiled.stats.bucket_templates == 0

    def test_precompiled_example_inputs(self):
        mlp = MLP([3, 8, 1], rng=np.random.default_rng(0))
        compiled = compile_module(mlp, np.zeros((4, 3)))
        assert compiled.stats.traces == 3
        assert compiled.stats.plan_builds == 1
        compiled(np.ones((7, 3)))
        assert compiled.stats.traces == 3
        assert compiled.stats.plan_builds == 1

    def test_copy_outputs_false_reuses_buffer(self):
        mlp = MLP([3, 8, 2], rng=np.random.default_rng(0))
        compiled = compile_module(mlp, copy_outputs=False)
        first = compiled.predict(np.zeros((4, 3)))
        snapshot = first.copy()
        second = compiled.predict(np.ones((4, 3)))
        assert second is first  # same plan buffer
        assert not np.array_equal(first, snapshot)  # overwritten in place
        # copying mode returns fresh arrays
        copying = compile_module(mlp)
        a = copying.predict(np.zeros((4, 3)))
        b = copying.predict(np.ones((4, 3)))
        assert a is not b

    def test_attribute_passthrough(self):
        net = SDNet(boundary_size=16, hidden_size=8, trunk_layers=1,
                    embedding_channels=(), rng=0)
        compiled = compile_module(net)
        assert compiled.boundary_size == 16
        assert compiled.config()["boundary_size"] == 16

    def test_retrace_invalidates_other_threads_plans(self):
        mlp = MLP([2, 4, 1], rng=np.random.default_rng(0))
        compiled = compile_module(mlp)
        x = np.ones((3, 2))
        compiled(x)
        builds_before = compiled.stats.plan_builds
        compiled.retrace()
        compiled(x)
        assert compiled.stats.plan_builds == builds_before + 1


class TestThreadSafety:
    def test_shared_compiled_module_across_threads(self):
        """Ranks share traces but never buffers: concurrent calls stay exact."""

        net = SDNet(boundary_size=16, hidden_size=8, trunk_layers=1,
                    embedding_channels=(2,), rng=3)
        compiled = compile_module(net)
        rng = seeded_rng(5)
        inputs = [
            (rng.normal(size=(4, 16)), rng.normal(size=(4, 6, 2)))
            for _ in range(4)
        ]
        expected = [net.predict(g, x) for g, x in inputs]
        failures: list[str] = []

        def worker(index):
            g, x = inputs[index]
            for _ in range(30):
                out = compiled.predict(g, x)
                if out.tobytes() != expected[index].tobytes():
                    failures.append(f"thread {index} diverged")
                    return

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
        assert compiled.stats.traces == 3  # one shared template
        assert compiled.stats.bucket_templates == 1
        assert compiled.stats.plan_builds == 4  # one plan per thread


def _sdnet():
    return SDNet(boundary_size=32, hidden_size=24, trunk_layers=3,
                 embedding_channels=(2,), rng=5)


def _sdnet_inputs(batch=6, points=11, seed=0):
    rng = seeded_rng(seed)
    return (
        rng.normal(size=(batch, 32)),
        rng.uniform(size=(points, 2)) * 0.5,
    )


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


class TestModelOwnedPrograms:
    def test_solvers_of_one_model_share_its_programs(self):
        net = SDNet(boundary_size=16, hidden_size=8, trunk_layers=1,
                    embedding_channels=(), rng=0)
        points = seeded_rng(0).uniform(size=(5, 2))
        g = seeded_rng(1).normal(size=(3, 16))
        first, second = SDNetSubdomainSolver(net), SDNetSubdomainSolver(net)
        first.predict(g, points)
        second.predict(g[:2], points)
        program = inference_program(net, points)
        assert program is inference_program(net, points.copy())
        assert program.stats.traces == 3 and program.stats.plan_builds == 1
        assert program.stats.calls == 2

    def test_programs_die_with_their_model(self):
        import gc
        import weakref

        net = SDNet(boundary_size=16, hidden_size=8, trunk_layers=1,
                    embedding_channels=(), rng=0)
        points = seeded_rng(0).uniform(size=(5, 2))
        SDNetSubdomainSolver(net).predict(seeded_rng(1).normal(size=(3, 16)), points)
        model_ref = weakref.ref(net)
        program_ref = weakref.ref(inference_program(net, points))
        del net
        gc.collect()
        assert model_ref() is None and program_ref() is None

    def test_solver_keeps_identity_and_counters(self, engine_sdnet):
        """Caller-held solver references keep accruing inference counters."""

        geometry, net = engine_sdnet
        solver = SDNetSubdomainSolver(net)
        predictor = MosaicFlowPredictor(geometry, solver)
        assert predictor.solver is solver
        predictor.run(_loop(geometry), max_iterations=8, tol=1e-7)
        assert solver.inference_calls > 0
        assert solver.points_evaluated > 0


class TestIntegrationParity:
    """Every driver of the compiled solver against the eager oracle, bit for bit."""

    def test_predictor_bitwise(self, engine_sdnet, eager_sdnet_solver):
        geometry, net = engine_sdnet
        loop = _loop(geometry)
        eager = MosaicFlowPredictor(geometry, eager_sdnet_solver(net)).run(
            loop, max_iterations=24, tol=1e-7
        )
        engine = MosaicFlowPredictor(geometry, SDNetSubdomainSolver(net)).run(
            loop, max_iterations=24, tol=1e-7
        )
        assert eager.iterations == engine.iterations
        assert eager.converged == engine.converged
        np.testing.assert_array_equal(eager.solution, engine.solution)
        np.testing.assert_array_equal(eager.lattice_field, engine.lattice_field)

    def test_one_session_run_bitwise(self, engine_sdnet, eager_sdnet_solver):
        geometry, net = engine_sdnet
        loops = np.stack([_loop(geometry, seed) for seed in range(3)])
        (eager,), _ = lattice_run(eager_sdnet_solver(net), [Session(geometry, loops, 1e-6, 24)])
        (engine,), _ = lattice_run(SDNetSubdomainSolver(net), [Session(geometry, loops, 1e-6, 24)])
        for a, b in zip(eager, engine):
            assert a.iterations == b.iterations
            np.testing.assert_array_equal(a.solution, b.solution)

    def test_server_bitwise_and_one_program_set(self, engine_sdnet, eager_sdnet_solver):
        geometry, net = engine_sdnet
        loops = [_loop(geometry, seed) for seed in range(4)]
        solutions = {}
        for solver_class in (eager_sdnet_solver, SDNetSubdomainSolver):
            server = Server(solver_factory=lambda geom: solver_class(net))
            ids = [
                server.submit(
                    SolveRequest.create(geometry, loop, tol=1e-6, max_iterations=24)
                )
                for loop in loops
            ]
            results = server.drain()
            solutions[solver_class] = [results[i].solution for i in ids]
        for eager, engine in zip(*solutions.values()):
            np.testing.assert_array_equal(eager, engine)
        # every worker rank of every batch ran the model's two programs
        for points in (geometry.center_line_local_coordinates(),
                       geometry.interior_local_coordinates()):
            stats = inference_program(net, points).stats
            assert stats.traces == 3 and stats.bucket_fallbacks == 0

    def test_server_accepts_and_ignores_engine_argument(self, engine_sdnet):
        geometry, net = engine_sdnet
        server = Server(solver_factory=lambda geom: SDNetSubdomainSolver(net), engine=True)
        request = SolveRequest.create(geometry, _loop(geometry), tol=1e-6, max_iterations=4)
        request_id = server.submit(request)
        assert np.isfinite(server.drain()[request_id].solution).all()

    def test_distributed_bitwise(self, engine_sdnet, eager_sdnet_solver):
        from repro.mosaic.distributed import DistributedMosaicFlowPredictor

        geometry, net = engine_sdnet
        loop = _loop(geometry)
        eager = DistributedMosaicFlowPredictor(
            geometry, lambda: eager_sdnet_solver(net)
        ).run(4, loop, max_iterations=16, tol=1e-7)
        engine = DistributedMosaicFlowPredictor(
            geometry, lambda: SDNetSubdomainSolver(net)
        ).run(4, loop, max_iterations=16, tol=1e-7)
        assert eager[0].iterations == engine[0].iterations
        np.testing.assert_array_equal(eager[0].solution, engine[0].solution)


class TestCheckpointRoundTrip:
    def test_compiled_module_roundtrip_is_bitwise(self, tmp_path):
        """Save a CompiledModule's source, re-trace on load: outputs bitwise."""

        from repro.io import load_compiled_sdnet, save_checkpoint

        rng = seeded_rng(23)
        net = SDNet(boundary_size=16, hidden_size=8, trunk_layers=1,
                    embedding_channels=(2,), rng=rng)
        compiled = compile_module(net)
        g = rng.normal(size=(3, 16))
        x = rng.normal(size=(3, 5, 2))
        before = compiled(g, x).data

        path = save_checkpoint(compiled, tmp_path / "compiled_sdnet")
        restored = load_compiled_sdnet(path)
        assert isinstance(restored, CompiledModule)
        after = restored(g, x).data
        assert before.tobytes() == after.tobytes()

    def test_load_model_into_compiled_retraces(self, tmp_path):
        """``load_state_dict`` announces the change; no explicit retrace needed."""

        from repro.io import load_model, save_checkpoint

        rng = seeded_rng(29)
        source = SDNet(boundary_size=16, hidden_size=8, trunk_layers=1,
                       embedding_channels=(), rng=1)
        path = save_checkpoint(source, tmp_path / "source")

        target = SDNet(boundary_size=16, hidden_size=8, trunk_layers=1,
                       embedding_channels=(), rng=2)
        compiled = compile_module(target)
        g = rng.normal(size=(2, 16))
        x = rng.normal(size=(2, 4, 2))
        compiled(g, x)  # build a plan against the old parameters
        load_model(path, compiled)
        assert compiled(g, x).data.tobytes() == source.predict(g, x).tobytes()
