"""The compiled SDNet inference path: one program per (model, point set).

Oracle: the eager ``model(g, x)`` forward under the solver's chunk rule (the
``eager_sdnet_solver`` fixture).  The compiled path must reproduce its bytes
for every row count, grouping of rows into calls, point set and model — and
do so with a bounded number of traces and plans, on any number of threads,
across parameter updates, without leaking plan accounting.
"""

from __future__ import annotations

import gc
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.data import generate_dataset
from repro.distributed import run_spmd
from repro.engine import BucketingError
from repro.fd import Grid2D
from repro.models import ConcatSolver, SDNet
from repro.mosaic import MosaicGeometry, SDNetSubdomainSolver
from repro.mosaic.distributed import DistributedMosaicFlowPredictor
from repro.mosaic.solvers import GEMM_STABLE_ROWS, QUERY_SETS_KEPT, inference_program
from repro.obs import memory as obs_memory
from repro.optim import Adam, Optimizer
from repro.serving import Server, SolveRequest
from repro.training import Trainer, TrainingConfig
from repro.utils import seeded_rng


def _point_sets(nx: int, ny: int) -> tuple[int, dict[str, np.ndarray]]:
    """Boundary size, centre-line and interior query points of an nx x ny subdomain."""

    grid = Grid2D(nx, ny, extent=(0.5, 0.5))
    mid_row, mid_col = ny // 2, nx // 2
    lines = [(mid_row, c) for c in range(1, nx - 1)]
    lines += [(r, mid_col) for r in range(1, ny - 1) if r != mid_row]
    interior = [(r, c) for r in range(1, ny - 1) for c in range(1, nx - 1)]

    def coordinates(indices):
        return np.array([[c * grid.hx, r * grid.hy] for r, c in indices])

    return grid.boundary_size, {"lines": coordinates(lines), "interior": coordinates(interior)}


@pytest.fixture(scope="module")
def cases():
    """(model, point sets, 200 boundary rows) per subdomain shape and model class."""

    built = {}
    for nx, ny in ((9, 9), (5, 7)):
        boundary_size, points = _point_sets(nx, ny)
        rows = seeded_rng(nx * ny).normal(size=(200, boundary_size))
        built[(nx, ny, "sdnet")] = (
            SDNet(boundary_size=boundary_size, hidden_size=12, trunk_layers=2,
                  embedding_channels=(2,), rng=5),
            points, rows,
        )
        built[(nx, ny, "concat")] = (
            ConcatSolver(boundary_size, hidden_size=12, trunk_layers=2, rng=5),
            points, rows,
        )
    return built


@pytest.fixture()
def net():
    return SDNet(boundary_size=32, hidden_size=12, trunk_layers=2,
                 embedding_channels=(2,), rng=11)


@pytest.fixture(scope="module")
def geometry():
    return MosaicGeometry(subdomain_points=9, subdomain_extent=0.5, steps_x=4, steps_y=4)


def _run_threads(threads, timeout=120.0):
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
    assert not any(thread.is_alive() for thread in threads)


class TestBytesEqualEager:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        shape=st.sampled_from([(9, 9), (5, 7)]),
        model_name=st.sampled_from(["sdnet", "concat"]),
        point_set=st.sampled_from(["lines", "interior"]),
        max_batch=st.sampled_from([None, 1, 5, 32, 100]),
        data=st.data(),
    )
    def test_any_grouping_of_rows_into_calls(
        self, cases, eager_sdnet_solver, shape, model_name, point_set, max_batch, data
    ):
        model, points, rows = cases[(*shape, model_name)]
        points = points[point_set]
        count = data.draw(st.integers(1, 200), label="rows")
        order = data.draw(st.permutations(range(count)), label="order")
        cuts = data.draw(
            st.lists(st.integers(1, max(count - 1, 1)), max_size=8, unique=True), label="cuts"
        )
        eager = eager_sdnet_solver(model, max_batch=max_batch)
        compiled = SDNetSubdomainSolver(model, max_batch=max_batch)
        # a row's bytes are a pure function of (row, points) ...
        reference = eager_sdnet_solver(model).predict(rows[:count], points)
        for part in np.split(np.asarray(order), sorted(c for c in cuts if c < count)):
            served = compiled.predict(rows[part], points)
            # ... equal to the eager forward of the same call ...
            assert served.tobytes() == eager.predict(rows[part], points).tobytes()
            # ... and independent of the rows sharing it
            assert served.tobytes() == reference[part].tobytes()
        assert compiled.inference_calls == eager.inference_calls
        assert compiled.points_evaluated == count * len(points)
        assert inference_program(model, points).stats.bucket_fallbacks == 0

    def test_input_validation_kept(self, net):
        solver = SDNetSubdomainSolver(net)
        with pytest.raises(ValueError, match="boundaries must have shape"):
            solver.predict(np.zeros((3, 31)), np.zeros((4, 2)))
        with pytest.raises(ValueError, match="points must have shape"):
            solver.predict(np.zeros((3, 32)), np.zeros((4, 3)))
        assert solver.predict(np.zeros((0, 32)), np.zeros((4, 2))).shape == (0, 4)


class TestBoundedByConstruction:
    def test_31_row_counts_on_two_point_sets_cost_six_traces_and_two_plans(self, net):
        _, points = _point_sets(9, 9)
        rng = seeded_rng(3)
        solver = SDNetSubdomainSolver(net)
        for rows in range(2, GEMM_STABLE_ROWS + 1):
            for query in points.values():
                solver.predict(rng.normal(size=(rows, 32)), query)
        programs = [inference_program(net, query) for query in points.values()]
        assert sum(p.stats.traces for p in programs) == 6
        assert sum(p.stats.plan_builds for p in programs) == 2  # this thread's
        assert [p.stats.bucket_templates for p in programs] == [1, 1]
        assert [p.stats.bucket_fallbacks for p in programs] == [0, 0]
        # larger calls are chunks of the same plans
        solver.predict(rng.normal(size=(1000, 32)), points["lines"])
        assert sum(p.stats.traces for p in programs) == 6
        assert sum(p.stats.plan_builds for p in programs) == 2
        # one set of capacity buffers, however many row counts it served
        assert programs[0].stats.plan_bytes == programs[0]._plans().bytes_in_use

    def test_two_threads_share_one_template(self, net, eager_sdnet_solver):
        _, points = _point_sets(9, 9)
        rows = seeded_rng(4).normal(size=(7, 32))
        barrier = threading.Barrier(2)
        served = [None, None]

        def worker(index):
            solver = SDNetSubdomainSolver(net)
            barrier.wait()
            served[index] = solver.predict(rows, points["lines"])

        _run_threads([threading.Thread(target=worker, args=(i,)) for i in range(2)])
        expected = eager_sdnet_solver(net).predict(rows, points["lines"])
        assert served[0].tobytes() == served[1].tobytes() == expected.tobytes()
        stats = inference_program(net, points["lines"]).stats
        assert stats.traces == 3 and stats.bucket_templates == 1
        assert stats.plan_builds == 2  # one plan per thread
        assert stats.plan_bytes == 0   # both threads exited: their bytes came back

    def test_more_threads_than_cores_under_a_squeezed_switch_interval(
        self, net, eager_sdnet_solver
    ):
        """Shared templates, per-thread plans: no lost update, no stray trace."""

        import sys

        _, points = _point_sets(9, 9)
        rows = seeded_rng(12).normal(size=(GEMM_STABLE_ROWS, 32))
        oracle = eager_sdnet_solver(net)
        expected = {name: oracle.predict(rows, query) for name, query in points.items()}
        workers, rounds = 6, 40
        failures: list[str] = []
        barrier = threading.Barrier(workers)

        def worker(index):
            solver = SDNetSubdomainSolver(net)
            rng = seeded_rng(100 + index)
            barrier.wait()
            for _ in range(rounds):
                name = ("lines", "interior")[int(rng.integers(2))]
                count = int(rng.integers(1, GEMM_STABLE_ROWS + 1))
                served = solver.predict(rows[:count], points[name])
                if served.tobytes() != expected[name][:count].tobytes():
                    failures.append(f"thread {index}: {name} x {count} rows diverged")
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _run_threads([threading.Thread(target=worker, args=(i,)) for i in range(workers)])
        finally:
            sys.setswitchinterval(interval)
        assert not failures
        for query in points.values():
            stats = inference_program(net, query).stats
            assert stats.traces == 3 and stats.bucket_templates == 1
            assert stats.bucket_fallbacks == 0
            assert stats.plan_builds <= workers
            assert stats.plan_bytes == 0  # every worker exited

    def test_rewritten_points_array_gets_the_new_answer(self, net, eager_sdnet_solver):
        rows = seeded_rng(5).normal(size=(4, 32))
        points = seeded_rng(6).uniform(size=(6, 2)) * 0.5
        solver = SDNetSubdomainSolver(net)
        before = solver.predict(rows, points)
        points[:] = points[::-1].copy()
        after = solver.predict(rows, points)
        assert after.tobytes() == eager_sdnet_solver(net).predict(rows, points).tobytes()
        assert after.tobytes() != before.tobytes()
        np.testing.assert_allclose(after, before[:, ::-1], rtol=0, atol=1e-12)

    def test_ninth_point_set_evicts_instead_of_growing(self, net):
        from repro.mosaic.solvers import _PROGRAMS

        rows = seeded_rng(7).normal(size=(3, 32))
        solver = SDNetSubdomainSolver(net)
        sets = [seeded_rng(k).uniform(size=(5, 2)) for k in range(QUERY_SETS_KEPT + 1)]
        for query in sets:
            solver.predict(rows, query)
        kept = _PROGRAMS[net].by_points
        assert len(kept) == QUERY_SETS_KEPT
        assert sets[0].tobytes() not in kept and sets[-1].tobytes() in kept


    def test_a_forward_the_templates_cannot_express_is_an_error(self):
        """No silent return of the plan-per-row-count fallback on the served path."""

        class RowCountDependent(SDNet):
            def forward_from_embedding(self, embedding, x):
                scale = float(np.sqrt(embedding.shape[0]))  # not affine in the rows
                return super().forward_from_embedding(embedding, x) * scale

        model = RowCountDependent(boundary_size=32, hidden_size=12, trunk_layers=2,
                                  embedding_channels=(2,), rng=11)
        points = _point_sets(9, 9)[1]["lines"]
        with pytest.raises(BucketingError):
            SDNetSubdomainSolver(model).predict(np.zeros((5, 32)), points)
        stats = inference_program(model, points).stats
        assert stats.plan_builds == 0 and stats.bucket_fallbacks == 0


class TestParameterUpdatesInvalidate:
    """Folded constants must not outlive the parameters they were folded from."""

    @staticmethod
    def _assert_fresh(model, eager_sdnet_solver, rows, points):
        served = SDNetSubdomainSolver(model).predict(rows, points)
        assert served.tobytes() == eager_sdnet_solver(model).predict(rows, points).tobytes()
        return served

    def test_load_state_dict_and_optimizer_step(self, net, eager_sdnet_solver):
        rows = seeded_rng(8).normal(size=(5, 32))
        points = _point_sets(9, 9)[1]["lines"]
        first = self._assert_fresh(net, eager_sdnet_solver, rows, points)

        donor = SDNet(boundary_size=32, hidden_size=12, trunk_layers=2,
                      embedding_channels=(2,), rng=12)
        net.load_state_dict(donor.state_dict())
        second = self._assert_fresh(net, eager_sdnet_solver, rows, points)
        assert second.tobytes() != first.tobytes()
        assert second.tobytes() == eager_sdnet_solver(donor).predict(rows, points).tobytes()

        optimizer = Adam(net.parameters(), lr=1e-2)
        for param in net.parameters():
            param.grad = type(param)(np.ones_like(param.data), requires_grad=False)
        optimizer.step()
        third = self._assert_fresh(net, eager_sdnet_solver, rows, points)
        assert third.tobytes() != second.tobytes()

    def test_the_rule_belongs_to_the_optimizer_base_and_to_the_module(
        self, net, eager_sdnet_solver
    ):
        rows = seeded_rng(8).normal(size=(5, 32))
        points = _point_sets(9, 9)[1]["lines"]
        first = self._assert_fresh(net, eager_sdnet_solver, rows, points)

        class Nudge(Optimizer):  # knows nothing about compiled programs
            def _update(self):
                for p in self.params:
                    p.data += self.lr

        Nudge(net.parameters(), lr=1e-2).step()
        second = self._assert_fresh(net, eager_sdnet_solver, rows, points)
        assert second.tobytes() != first.tobytes()

        next(iter(net.parameters())).data *= 1.5  # by hand, then announced
        net.parameters_changed()
        third = self._assert_fresh(net, eager_sdnet_solver, rows, points)
        assert third.tobytes() != second.tobytes()

    def test_other_models_updates_do_not_retrace(self, net):
        points = _point_sets(9, 9)[1]["lines"]
        rows = seeded_rng(8).normal(size=(5, 32))
        solver = SDNetSubdomainSolver(net)
        solver.predict(rows, points)
        other = SDNet(boundary_size=32, hidden_size=12, trunk_layers=2,
                      embedding_channels=(2,), rng=12)
        other.load_state_dict(net.state_dict())
        Adam(other.parameters(), lr=1e-2).step()
        solver.predict(rows, points)
        stats = inference_program(net, points).stats
        assert stats.traces == 3 and stats.plan_builds == 1

    def test_one_more_epoch_of_training(self, eager_sdnet_solver):
        dataset = generate_dataset(num_samples=8, resolution=9, extent=(0.5, 0.5), seed=3)
        model = SDNet(boundary_size=dataset.grid.boundary_size, hidden_size=12,
                      trunk_layers=2, embedding_channels=(2,), rng=13)
        config = TrainingConfig(epochs=1, batch_size=4, data_points_per_domain=8,
                                collocation_points_per_domain=4, seed=0)
        rows = seeded_rng(9).normal(size=(5, dataset.grid.boundary_size))
        points = _point_sets(9, 9)[1]["interior"]
        before = self._assert_fresh(model, eager_sdnet_solver, rows, points)
        Trainer(model, config, dataset).fit()
        after = self._assert_fresh(model, eager_sdnet_solver, rows, points)
        assert after.tobytes() != before.tobytes()

    def test_server_stays_up_across_a_reload(self, geometry, eager_sdnet_solver):
        boundary_size = geometry.subdomain_grid().boundary_size
        model = SDNet(boundary_size=boundary_size, hidden_size=12, trunk_layers=2,
                      embedding_channels=(2,), rng=14)
        donor = SDNet(boundary_size=boundary_size, hidden_size=12, trunk_layers=2,
                      embedding_channels=(2,), rng=15)
        loop = geometry.boundary_from_function(lambda x, y: x * x - y * y + 0.5 * x)

        def standalone():
            from repro.mosaic import MosaicFlowPredictor

            return MosaicFlowPredictor(geometry, eager_sdnet_solver(model)).run(
                loop, max_iterations=6, tol=0.0).solution

        with Server(solver_factory=lambda geom: SDNetSubdomainSolver(model),
                    async_workers=2) as server:
            def serve(tol):
                request = SolveRequest.create(geometry, loop, tol=tol, max_iterations=6)
                return server.submit_async(request).result(timeout=60).solution

            assert serve(0.0).tobytes() == standalone().tobytes()
            model.load_state_dict(donor.state_dict())
            # a distinct request (not a replay of the stored one) on the new weights
            assert serve(1e-300).tobytes() == standalone().tobytes()


class TestPlanAccountingOfDeadThreads:
    def test_rank_threads_and_server_workers_credit_their_plans_back(self, geometry):
        boundary_size = geometry.subdomain_grid().boundary_size
        model = SDNet(boundary_size=boundary_size, hidden_size=12, trunk_layers=2,
                      embedding_channels=(2,), rng=16)
        loop = geometry.boundary_from_function(lambda x, y: x * y + x)
        accountant = obs_memory.enable_memory_accounting()
        owner = obs_memory.ENGINE_PLAN_BUFFERS
        try:
            baseline = accountant.live_bytes(owner)
            distributed = DistributedMosaicFlowPredictor(
                geometry, lambda: SDNetSubdomainSolver(model))
            for _ in range(20):
                distributed.run(2, loop, max_iterations=2, tol=0.0)
            programs = (inference_program(model, geometry.center_line_local_coordinates()),
                        inference_program(model, geometry.interior_local_coordinates()))
            built = [program.stats.plan_builds for program in programs]
            # Two workers compute in forked processes: the plans of served
            # runs are built, and credited back, in the workers.
            with Server(solver_factory=lambda geom: SDNetSubdomainSolver(model),
                        async_workers=2) as server:
                request = SolveRequest.create(geometry, loop, tol=0.0, max_iterations=2)
                server.submit_async(request).result(timeout=60)
            reports = [worker["exit"] for worker in server.health()["workers"]]
            assert sum(report["plan_builds"] for report in reports) >= 2
            assert all(report["plan_bytes_held"] == 0 for report in reports)
            gc.collect()
            stats = accountant.snapshot()["owners"][owner]
            assert stats["allocated_bytes"] > 0 and stats["frees"] > 0
            assert stats["allocated_bytes"] - stats["freed_bytes"] == stats["live_bytes"]
            assert stats["live_bytes"] == baseline
            for program, before in zip(programs, built):
                assert program.stats.plan_builds == before >= 2  # none in the parent
                assert program.stats.plan_bytes == 0
                assert program.stats.traces == 3
        finally:
            obs_memory.disable_memory_accounting()

    def test_spmd_threads_release_on_exit(self, net):
        points = _point_sets(9, 9)[1]["lines"]
        rows = seeded_rng(10).normal(size=(4, 32))

        def rank(comm):
            SDNetSubdomainSolver(net).predict(rows, points)
            return inference_program(net, points).stats.plan_bytes

        held = run_spmd(2, rank)
        assert min(held) > 0
        assert inference_program(net, points).stats.plan_bytes == 0
