"""Cross-request mega-batching: fusion keys, bitwise parity, hot-path bugfixes.

Many sessions in one run go through :func:`repro.serving.compute.lattice_run`,
the :class:`~repro.mosaic.core.LatticeRun` with a counting ``predict`` every
served run uses.

The oracles are the standalone ``MosaicFlowPredictor.run`` and one ``Server``
per geometry group (nothing to fuse with): mega-batching only concatenates
solver-call rows across fusion-compatible batches, so every request's
solution, iteration count and convergence deltas must stay bitwise identical
to both.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.domains import CompositeDomain, CompositeMosaicGeometry
from repro.fd import Grid2D
from repro.models import SDNet
from repro.mosaic import (
    FDSubdomainSolver,
    MosaicFlowPredictor,
    MosaicGeometry,
    SDNetSubdomainSolver,
)
from repro.mosaic.core import PLAN_CACHE, Session
from repro.obs import FlightRecorder
from repro.pde import HARMONIC_FUNCTIONS
from repro.serving import (
    CRASH,
    WORKER_SOLVE,
    BatchPolicy,
    DeadlineExceededError,
    FaultInjector,
    FaultSpec,
    Server,
    SolutionCache,
    SolveRequest,
    TenantQuota,
    default_solver_factory,
)
from repro.serving.compute import lattice_run
from repro.utils import seeded_rng

RECT = MosaicGeometry(subdomain_points=9, subdomain_extent=0.5, steps_x=4, steps_y=4)
WIDE = MosaicGeometry(subdomain_points=9, subdomain_extent=0.5, steps_x=6, steps_y=4)
L_SHAPE = CompositeMosaicGeometry(9, 0.5, CompositeDomain.l_shape(6, 6, 3, 3))
GEOMETRIES = (RECT, WIDE, L_SHAPE)


def _loops(geometry, count, seed):
    rng = seeded_rng(seed)
    names = sorted(HARMONIC_FUNCTIONS)
    loops = []
    for _ in range(count):
        weights = rng.normal(size=len(names))
        loops.append(
            geometry.boundary_from_function(
                lambda x, y, w=weights: sum(
                    wi * HARMONIC_FUNCTIONS[name](x, y)
                    for wi, name in zip(w, names)
                )
            )
        )
    return loops


def _server(clock, **kwargs):
    kwargs.setdefault("policy", BatchPolicy(max_batch_size=8, max_wait_seconds=1e9))
    kwargs.setdefault("cache", SolutionCache(capacity=64))
    return Server(clock=clock, **kwargs)


def _serve_stream(server, stream):
    ids = []
    for geometry, loop in stream:
        ids.append(
            server.submit(
                SolveRequest.create(geometry, loop, max_iterations=40)
            )
        )
    return ids, server.drain()


def _per_group(clock, stream, **kwargs):
    """The stream served by one server per geometry group, in stream order."""

    results = [None] * len(stream)
    for geometry in {id(g): g for g, _ in stream}.values():
        indices = [i for i, (g, _) in enumerate(stream) if g is geometry]
        ids, served = _serve_stream(
            _server(clock, **kwargs), [stream[i] for i in indices]
        )
        for index, request_id in zip(indices, ids):
            results[index] = served[request_id]
    return results


def _mixed_stream(per_geometry=2, seed=31):
    stream = []
    for offset, geometry in enumerate(GEOMETRIES):
        for loop in _loops(geometry, per_geometry, seed + offset):
            stream.append((geometry, loop))
    return stream


class TestFusionKeys:
    def test_fd_solvers_fuse_on_identical_configuration(self):
        grid = RECT.subdomain_grid()
        a = FDSubdomainSolver(grid, method="direct").fusion_key()
        b = FDSubdomainSolver(grid, method="direct").fusion_key()
        assert a == b and a[0] == "fd"
        other_grid = Grid2D(11, 11, extent=(0.5, 0.5))
        assert FDSubdomainSolver(other_grid, method="direct").fusion_key() != a

    def test_sdnet_solvers_fuse_only_on_the_same_model(self):
        model = SDNet(boundary_size=RECT.subdomain_grid().boundary_size,
                      hidden_size=16, trunk_layers=2, embedding_channels=(2,), rng=7)
        twin = SDNet(boundary_size=RECT.subdomain_grid().boundary_size,
                     hidden_size=16, trunk_layers=2, embedding_channels=(2,), rng=7)
        a = SDNetSubdomainSolver(model).fusion_key()
        b = SDNetSubdomainSolver(model).fusion_key()
        assert a == b and a[0] == "sdnet"
        assert SDNetSubdomainSolver(twin).fusion_key() != a

    def test_unknown_solver_types_never_fuse(self, fake_clock):
        class Mystery:
            boundary_size = RECT.subdomain_grid().boundary_size

            def predict(self, boundaries, points):  # pragma: no cover
                return np.zeros((boundaries.shape[0], points.shape[0]))

        server = _server(fake_clock, solver_factory=lambda geometry: Mystery())
        group_key = SolveRequest.create(RECT, _loops(RECT, 1, seed=1)[0]).group_key
        with server._lock:
            assert server._compat_key(group_key) == group_key


class TestMegaParity:
    def test_mixed_geometries_bitwise_identical_to_per_group_servers(self, fake_clock):
        stream = _mixed_stream(per_geometry=2, seed=31)
        mega_ids, mega_results = _serve_stream(_server(fake_clock), stream)
        reference = _per_group(fake_clock, stream)
        assert len(mega_results) == len(stream)
        for mega_id, theirs in zip(mega_ids, reference):
            ours = mega_results[mega_id]
            assert ours.solution.tobytes() == theirs.solution.tobytes()
            assert ours.iterations == theirs.iterations
            assert ours.converged == theirs.converged
            assert ours.deltas == theirs.deltas

    def test_mega_stats_record_fusion(self, fake_clock):
        server = _server(fake_clock)
        _serve_stream(server, _mixed_stream(per_geometry=2, seed=33))
        stats = server.stats
        assert stats.mega_runs == 1
        assert stats.mega_calls >= 1
        assert stats.fused_runs == len(GEOMETRIES)  # per-batch accounting kept
        assert stats.mean_mega_occupancy == pytest.approx(len(GEOMETRIES))
        assert stats.mean_mega_rows > 0
        d = stats.as_dict()
        assert d["mega_runs"] == 1 and d["mega_calls"] == stats.mega_calls
        assert "mega-batch runs" in stats.report()

    def test_single_batch_is_its_standalone_run_and_no_mega_run(self, fake_clock):
        server = _server(fake_clock)
        loops = _loops(RECT, 2, seed=37)
        ids, results = _serve_stream(server, [(RECT, loop) for loop in loops])
        for request_id, loop in zip(ids, loops):
            served, alone = results[request_id], _standalone(RECT, loop, 1e-6, 40)
            assert served.solution.tobytes() == alone.solution.tobytes()
            assert (served.iterations, served.converged, served.deltas) == (
                alone.iterations, alone.converged, alone.deltas
            )
        # A run of one batch is not cross-request fusion.
        assert server.stats.fused_runs == 1
        assert server.stats.mega_runs == 0
        assert server.stats.mega_calls == 0

    def test_distinct_models_do_not_cross_fuse(self, fake_clock):
        def model_for(rng):
            return SDNet(boundary_size=RECT.subdomain_grid().boundary_size,
                         hidden_size=16, trunk_layers=2,
                         embedding_channels=(2,), rng=rng)

        models = {id(RECT): model_for(1), id(WIDE): model_for(2)}
        rows = {id(RECT): 0, id(WIDE): 0}

        class CountingSolver(SDNetSubdomainSolver):
            def __init__(self, geometry):
                super().__init__(models[id(geometry)])
                self.key = id(geometry)

            def predict(self, boundaries, points):
                rows[self.key] += boundaries.shape[0]
                return super().predict(boundaries, points)

        stream = [(RECT, _loops(RECT, 1, seed=39)[0]),
                  (WIDE, _loops(WIDE, 1, seed=40)[0])]
        server = _server(fake_clock, solver_factory=CountingSolver)
        _, results = _serve_stream(server, stream)
        assert len(results) == 2
        assert server.stats.fused_runs == 2
        mixed = dict(rows)
        # Each model's solver saw exactly the rows of its own group served
        # alone: no WIDE row ever reached RECT's model, nor the reverse.
        for geometry, loop in stream:
            rows[id(geometry)] = 0
            _serve_stream(_server(fake_clock, solver_factory=CountingSolver),
                          [(geometry, loop)])
            assert rows[id(geometry)] == mixed[id(geometry)] > 0

    def test_shared_sdnet_groups_fuse(self, fake_clock):
        model = SDNet(boundary_size=RECT.subdomain_grid().boundary_size,
                      hidden_size=16, trunk_layers=2, embedding_channels=(2,), rng=9)

        def factory(geometry):
            return SDNetSubdomainSolver(model)

        stream = [(geometry, _loops(geometry, 1, seed=41)[0])
                  for geometry in GEOMETRIES]
        mega = _server(fake_clock, solver_factory=factory)
        mega_ids, mega_results = _serve_stream(mega, stream)
        reference = _per_group(fake_clock, stream, solver_factory=factory)
        assert mega.stats.mega_runs == 1
        for mega_id, theirs in zip(mega_ids, reference):
            assert (
                mega_results[mega_id].solution.tobytes()
                == theirs.solution.tobytes()
            )


class TestOneExecutePath:
    """Every dispatched batch, of any size, is one lattice run."""

    @pytest.mark.parametrize("size", [1, 2, 3, 5])
    def test_one_batch_keeps_results_and_order(self, fake_clock, size):
        server = _server(fake_clock)
        loops = _loops(RECT, size, seed=51)
        ids, results = _serve_stream(server, [(RECT, loop) for loop in loops])
        assert list(results) == ids
        for request_id, loop in zip(ids, loops):
            served, alone = results[request_id], _standalone(RECT, loop, 1e-6, 40)
            assert served.solution.tobytes() == alone.solution.tobytes()
            assert served.iterations == alone.iterations
        assert server.stats.fused_runs == 1
        assert server.stats.batch_sizes == [size]

    def test_drain_with_nothing_queued_runs_nothing(self, fake_clock):
        server = _server(fake_clock)
        assert server.drain() == {}
        assert server.stats.fused_runs == 0
        assert server.stats.solved_requests == 0

    @pytest.mark.parametrize(
        "keyword", ["world_size", "mega_batch", "estimator", "latency_budget_seconds"]
    )
    def test_removed_path_keywords_are_rejected(self, fake_clock, keyword):
        with pytest.raises(TypeError, match=keyword):
            _server(fake_clock, **{keyword: 2})

    def test_removed_sizing_options_are_rejected(self):
        # Backlog-seconds admission and the per-call row cap went with the
        # serving estimator; nothing replaces them.
        with pytest.raises(TypeError, match="max_backlog_seconds"):
            TenantQuota(max_backlog_seconds=1.0)

    def test_unkeyed_solver_groups_run_alone_on_one_solver_each(self, fake_clock):
        built = {id(RECT): 0, id(WIDE): 0}

        class Opaque:
            """An FD solver behind a type the fusion keys do not know."""

            def __init__(self, geometry):
                built[id(geometry)] += 1
                self.inner = FDSubdomainSolver(geometry.subdomain_grid(), method="direct")
                self.boundary_size = self.inner.boundary_size

            def predict(self, boundaries, points):
                return self.inner.predict(boundaries, points)

        assert not hasattr(Opaque(RECT), "fusion_key")
        built[id(RECT)] = 0
        server = _server(fake_clock, solver_factory=Opaque)
        for seed in (53, 54):
            stream = [(RECT, _loops(RECT, 1, seed=seed)[0]),
                      (WIDE, _loops(WIDE, 1, seed=seed)[0])]
            ids, results = _serve_stream(server, stream)
            for request_id, (geometry, loop) in zip(ids, stream):
                alone = _standalone(geometry, loop, 1e-6, 40)
                assert results[request_id].solution.tobytes() == alone.solution.tobytes()
        assert built == {id(RECT): 1, id(WIDE): 1}
        assert server.stats.fused_runs == 4
        assert server.stats.mega_runs == 0

    def test_a_wrapper_that_delegates_its_fusion_key_fuses(self, fake_clock):
        class Wrapped:
            """An FD solver behind a wrapper that states the inner solver's key."""

            def __init__(self, geometry):
                self.inner = FDSubdomainSolver(geometry.subdomain_grid(), method="direct")
                self.boundary_size = self.inner.boundary_size

            def fusion_key(self):
                return self.inner.fusion_key()

            def predict(self, boundaries, points):
                return self.inner.predict(boundaries, points)

        # One crashed attempt retains every request as a "retried" flight record.
        faults = FaultInjector(
            [FaultSpec(site=WORKER_SOLVE, index=0, kind=CRASH)], sleep=fake_clock.advance
        )
        server = _server(
            fake_clock, solver_factory=Wrapped, faults=faults, max_retries=1,
            sleep=fake_clock.advance, flight=FlightRecorder(),
        )
        stream = [(RECT, loop) for loop in _loops(RECT, 2, seed=55)]
        stream.insert(1, (WIDE, _loops(WIDE, 1, seed=56)[0]))
        ids, results = _serve_stream(server, stream)
        assert server.stats.mega_runs >= 1
        for request_id, (geometry, loop) in zip(ids, stream):
            alone = _standalone(geometry, loop, 1e-6, 40)
            assert results[request_id].solution.tobytes() == alone.solution.tobytes()
        grid = RECT.subdomain_grid()
        inner = Wrapped(RECT).inner.fusion_key()
        records = server.flight.records("retried")
        assert sorted(r.request_id for r in records) == sorted(ids)
        assert {r.attrs["fusion_key"] for r in records} == {
            repr((grid.nx, grid.ny, tuple(grid.extent), inner))
        }


class TestBoundedCompatMaps:
    def test_300_geometries_keep_both_maps_at_the_cap(self, fake_clock):
        built = []

        def factory(geometry):
            built.append(geometry)
            return default_solver_factory(geometry)

        # 50 subdomain extents x 6 domain widths: 300 groups over 50
        # compatibility keys, so both maps would outgrow the cap unbounded.
        geometries = [
            MosaicGeometry(5, 0.25 + 0.01 * (index % 50), steps_x=2 + index // 50, steps_y=2)
            for index in range(300)
        ]
        server = _server(fake_clock, solver_factory=factory)
        for geometry in geometries:
            loop = geometry.boundary_from_function(lambda x, y: x * x - y * y)
            server.submit(SolveRequest.create(geometry, loop, max_iterations=2))
        assert len(server.drain()) == 300
        cap = PLAN_CACHE.capacity
        assert len(server._compat_keys) <= cap and len(server._mega_solvers) <= cap

        # The first group was evicted long ago: serving it again asks the
        # factory anew and still answers with the standalone run's bytes.
        first = geometries[0]
        loop = first.boundary_from_function(lambda x, y: x * y + 0.5 * x)
        request = SolveRequest.create(first, loop, max_iterations=40)
        assert request.group_key not in server._compat_keys
        calls = len(built)
        server.submit(request)
        served = server.drain()[request.request_id]
        assert len(built) > calls and built[-1] is first
        alone = _standalone(first, loop, 1e-6, 40)
        assert served.solution.tobytes() == alone.solution.tobytes()
        assert (served.iterations, served.deltas) == (alone.iterations, alone.deltas)
        assert len(server._compat_keys) <= cap and len(server._mega_solvers) <= cap


class TestCoRelease:
    def test_compatible_queue_rides_a_size_released_batch(self, fake_clock):
        server = _server(
            fake_clock, policy=BatchPolicy(max_batch_size=2, max_wait_seconds=1e9)
        )
        rect_loops = _loops(RECT, 2, seed=43)
        wide_loop = _loops(WIDE, 1, seed=44)[0]
        server.submit(SolveRequest.create(RECT, rect_loops[0], max_iterations=40))
        server.submit(SolveRequest.create(WIDE, wide_loop, max_iterations=40))
        assert server.pending == 2  # both groups below size, no deadline
        # RECT's size trigger releases its batch; WIDE's queued request is
        # co-released to ride the same mega run instead of waiting forever.
        server.submit(SolveRequest.create(RECT, rect_loops[1], max_iterations=40))
        assert server.pending == 0
        assert server.stats.mega_runs == 1
        assert server.stats.fused_runs == 2
        assert len(server.drain()) == 3

    def test_co_release_results_match_reference(self, fake_clock):
        policy = BatchPolicy(max_batch_size=2, max_wait_seconds=1e9)
        stream = [
            (RECT, _loops(RECT, 2, seed=45)[0]),
            (WIDE, _loops(WIDE, 1, seed=46)[0]),
            (RECT, _loops(RECT, 2, seed=45)[1]),
        ]
        ids, results = _serve_stream(_server(fake_clock, policy=policy), stream)
        reference = _per_group(fake_clock, stream, policy=policy)
        assert [results[i].solution.tobytes() for i in ids] == [
            r.solution.tobytes() for r in reference
        ]


class TestRetryBackoffExpiry:
    """Bugfix: deadline fail-fast re-runs between retry attempts."""

    def test_expired_during_backoff_skips_the_retry_solve(self, fake_clock):
        faults = FaultInjector(
            [FaultSpec(site=WORKER_SOLVE, index=0, kind=CRASH)],
            sleep=fake_clock.advance,
        )
        server = _server(
            fake_clock, faults=faults, max_retries=2,
            sleep=lambda seconds: fake_clock.advance(5.0),
        )
        request = SolveRequest.create(
            RECT, _loops(RECT, 1, seed=47)[0],
            max_iterations=40, deadline_seconds=2.0,
        )
        server.submit(request)
        future = server.future(request.request_id)
        assert server.drain() == {}
        error = future.exception()
        assert isinstance(error, DeadlineExceededError)
        assert "during retry backoff" in str(error)
        # The 5s backoff outlived the 2s deadline: the second attempt must
        # never run, so exactly one worker call and zero fused runs.
        assert faults.calls(WORKER_SOLVE) == 1
        assert server.stats.fused_runs == 0
        assert server.stats.retries == 1
        assert server.stats.timeouts == 1
        assert server.stats.failures == 0

    def test_mega_retry_drops_expired_batches_and_serves_survivors(self, fake_clock):
        faults = FaultInjector(
            [FaultSpec(site=WORKER_SOLVE, index=0, kind=CRASH)],
            sleep=fake_clock.advance,
        )
        server = _server(
            fake_clock, faults=faults, max_retries=2,
            sleep=lambda seconds: fake_clock.advance(5.0),
        )
        tight = SolveRequest.create(
            RECT, _loops(RECT, 1, seed=48)[0],
            max_iterations=40, deadline_seconds=2.0,
        )
        patient = SolveRequest.create(
            WIDE, _loops(WIDE, 1, seed=49)[0], max_iterations=40
        )
        server.submit(tight)
        server.submit(patient)
        tight_future = server.future(tight.request_id)
        results = server.drain()
        assert list(results) == [patient.request_id]
        error = tight_future.exception()
        assert isinstance(error, DeadlineExceededError)
        assert "during retry backoff" in str(error)
        assert faults.calls(WORKER_SOLVE) == 2  # crash, then the retry
        # The retry ran the survivor alone: one batch is not a mega run.
        assert server.stats.fused_runs == 1
        assert server.stats.mega_runs == 0

        # The survivor's solution matches its unfaulted standalone run, bitwise.
        alone = _standalone(WIDE, _loops(WIDE, 1, seed=49)[0], 1e-6, 40)
        assert (
            results[patient.request_id].solution.tobytes()
            == alone.solution.tobytes()
        )


class TestQueueWaitStats:
    """Bugfix: queue waits are recorded only for live (non-expired) requests."""

    def test_expired_requests_do_not_skew_queue_waits(self, fake_clock):
        server = _server(fake_clock)
        doomed = SolveRequest.create(
            RECT, _loops(RECT, 2, seed=50)[0],
            max_iterations=40, deadline_seconds=2.0,
        )
        live = SolveRequest.create(
            RECT, _loops(RECT, 2, seed=50)[1], max_iterations=40
        )
        server.submit(doomed)
        server.submit(live)
        fake_clock.advance(3.0)  # doomed expires in the queue
        results = server.drain()
        assert list(results) == [live.request_id]
        waits = server.stats.registry.histogram("serving.queue_wait_seconds")
        assert waits.count == 1  # only the live request's wait was recorded
        assert float(waits.values()[0]) == pytest.approx(3.0)


#: one anchor row: the phases with row parity 1 have no anchors at all
THIN = MosaicGeometry(subdomain_points=9, subdomain_extent=0.5, steps_x=4, steps_y=2)


def _digest(outcome):
    return (
        outcome.solution.tobytes(), outcome.lattice_field.tobytes(),
        outcome.iterations, outcome.converged, tuple(outcome.deltas),
    )


def _standalone(geometry, loop, tol, budget, init_mode="mean", check_interval=1):
    """The oracle: one request alone through ``MosaicFlowPredictor.run``."""

    solver = FDSubdomainSolver(geometry.subdomain_grid(), method="direct")
    return MosaicFlowPredictor(geometry, solver, init_mode=init_mode).run(
        loop, max_iterations=int(budget), tol=float(tol), check_interval=check_interval
    )


class TestManySessionsProperty:
    """Hypothesis: N sessions in one run == each session alone == each request alone."""

    @given(
        counts=st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
        seed=st.integers(0, 10),
    )
    @settings(max_examples=20, deadline=None)
    def test_lockstep_execution_is_bitwise_identical(self, counts, seed):
        # (Name kept from the generator-lockstep executor this test was
        # written against; the oracle is the same and one step wider.)
        solver = FDSubdomainSolver(RECT.subdomain_grid(), method="direct")
        populated = [
            (geometry, _loops(geometry, count, seed=seed * 7 + index))
            for index, (geometry, count) in enumerate(zip(GEOMETRIES, counts))
            if count > 0
        ]
        sessions = [
            Session(geometry, np.stack(loops), np.full(len(loops), 1e-6),
                    np.full(len(loops), 12))
            for geometry, loops in populated
        ]
        mega, calls = lattice_run(solver, sessions)
        assert len(mega) == len(populated)
        if populated:
            assert len(calls) > 0 and sum(rows for rows, _ in calls) > 0
        else:
            assert calls == []
        for (geometry, loops), outcomes in zip(populated, mega):
            (alone,), _ = lattice_run(
                FDSubdomainSolver(geometry.subdomain_grid(), method="direct"),
                [Session(geometry, np.stack(loops), np.full(len(loops), 1e-6),
                         np.full(len(loops), 12))],
            )
            assert [_digest(o) for o in outcomes] == [_digest(o) for o in alone]
            assert [_digest(o) for o in outcomes] == [
                _digest(_standalone(geometry, loop, 1e-6, 12)) for loop in loops
            ]

    # The path no benchmarked request takes: requests that stop at different
    # iterations, so the active set (and its index arrays) is rebuilt mid-run.
    @given(
        sessions=st.lists(
            st.tuples(
                st.sampled_from([RECT, WIDE, L_SHAPE, THIN]),
                st.lists(
                    st.tuples(
                        st.sampled_from([3e-2, 1e-2, 3e-3, 1e-3, 0.0]),  # tol
                        st.integers(1, 24),                              # budget
                    ),
                    min_size=1, max_size=3,
                ),
                st.sampled_from([1, 2, 3]),          # check_interval
                st.sampled_from(["mean", "zero"]),   # init_mode
            ),
            min_size=1, max_size=4,
        ),
        seed=st.integers(0, 5),
    )
    @settings(max_examples=25, deadline=None)
    def test_retiring_requests_keep_their_standalone_bytes(self, sessions, seed):
        solver = FDSubdomainSolver(RECT.subdomain_grid(), method="direct")
        built, expected = [], []
        for index, (geometry, requests, check_interval, init_mode) in enumerate(sessions):
            loops = _loops(geometry, len(requests), seed=seed * 11 + index)
            tols = np.array([tol for tol, _ in requests])
            budgets = np.array([budget for _, budget in requests])
            built.append(
                Session(geometry, np.stack(loops), tols, budgets, init_mode, check_interval)
            )
            expected.append([
                _digest(_standalone(geometry, loop, tol, budget, init_mode, check_interval))
                for loop, tol, budget in zip(loops, tols, budgets)
            ])
        mega, _ = lattice_run(solver, built)
        assert [[_digest(o) for o in outcomes] for outcomes in mega] == expected

    def test_requests_do_retire_at_different_iterations(self):
        # Pins the scenario the property explores: the loose request leaves
        # first, the tight one runs on alone, the third runs out of budget;
        # on THIN half of the phases process nothing.
        solver = FDSubdomainSolver(RECT.subdomain_grid(), method="direct")
        tols, budgets = np.array([1e-2, 1e-3, 0.0]), np.array([30, 30, 9])
        geometries = (RECT, WIDE, L_SHAPE, THIN)
        mega, _ = lattice_run(solver, [
            Session(geometry, np.stack(_loops(geometry, 3, seed=5 + index)), tols, budgets)
            for index, geometry in enumerate(geometries)
        ])
        iterations = [[o.iterations for o in outcomes] for outcomes in mega]
        assert iterations[:3] == [[9, 7, 9], [11, 25, 9], [6, 15, 9]]
        assert len({count for counts in iterations for count in counts}) >= 5
        assert [o.converged for o in mega[1]] == [True, True, False]
        for geometry, outcomes, index in zip(geometries, mega, range(4)):
            loops = _loops(geometry, 3, seed=5 + index)
            assert [_digest(o) for o in outcomes] == [
                _digest(_standalone(geometry, loop, tol, budget))
                for loop, tol, budget in zip(loops, tols, budgets)
            ]


class TestCounters:
    """The call/row counters read what they read before the one-core refactor."""

    TOLS, BUDGETS = np.array([1e-2, 1e-3, 0.0]), np.array([30, 30, 9])

    def test_one_session_totals(self):
        loops = np.stack(_loops(WIDE, 3, seed=5))
        _, calls = lattice_run(
            FDSubdomainSolver(WIDE.subdomain_grid()),
            [Session(WIDE, loops, self.TOLS, self.BUDGETS)],
        )
        # 25 iterations of the longest request + 1 assembly chunk; rows drop
        # as requests retire (values recorded before the one-core refactor).
        assert (len(calls), sum(rows for rows, _ in calls)) == (26, 219)

    def test_three_sessions_calls_rows_and_sessions_per_call(self):
        solver = FDSubdomainSolver(RECT.subdomain_grid(), method="direct")
        _, calls = lattice_run(solver, [
            Session(geometry, np.stack(_loops(geometry, 3, seed=5 + index)),
                    self.TOLS, self.BUDGETS)
            for index, geometry in enumerate((RECT, WIDE, L_SHAPE))
        ])
        # One solver call per gather: 25 iterations + 1 assembly chunk.
        assert (len(calls), sum(rows for rows, _ in calls)) == (26, 475)
        assert max(sessions for _, sessions in calls) == 3
        assert min(sessions for _, sessions in calls) == 1  # WIDE's tight request, alone
