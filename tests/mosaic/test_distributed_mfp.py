"""Distributed Mosaic Flow predictor (Algorithm 2): forked rank processes, with rank threads as the oracle."""

import importlib
import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro.distributed import ProcessGrid, ReduceOp, fork_spmd, run_spmd
from repro.distributed import processes
from repro.fd import solve as fd_solve
from repro.fd import solve_laplace_from_loop
from repro.models import SDNet
from repro.mosaic import (
    DistributedMosaicFlowPredictor,
    FDSubdomainSolver,
    MosaicFlowPredictor,
    MosaicGeometry,
    SDNetSubdomainSolver,
)
from repro.mosaic.core import (
    PHASES,
    PLAN_CACHE,
    accumulate,
    build_plan,
    initialize_lattice_field,
    overlap_average,
    timed,
)
from repro.mosaic import distributed as mosaic_distributed
from repro.mosaic import solvers as mosaic_solvers
from repro.mosaic.distributed import (
    DistributedMFPResult,
    HaloExchangePlan,
    RankLayout,
    _owner_anchor,
)
from repro.mosaic.domain import CompositeDomain
from repro.obs import disable_tracing, enable_tracing
from repro.obs.memory import disable_memory_accounting, enable_memory_accounting
from repro.pde import HARMONIC_FUNCTIONS

engine_trace = importlib.import_module("repro.engine.trace")


@pytest.fixture(scope="module")
def problem():
    geo = MosaicGeometry(subdomain_points=9, subdomain_extent=0.5, steps_x=6, steps_y=4)
    grid = geo.global_grid()
    loop = grid.boundary_from_function(HARMONIC_FUNCTIONS["exp_sine"])
    reference = solve_laplace_from_loop(grid, loop, method="direct")
    return geo, grid, loop, reference


def solver_factory_for(geometry):
    return lambda: FDSubdomainSolver(geometry.subdomain_grid(), method="direct")


@pytest.fixture(scope="module")
def sdnet(problem):
    geo, *_ = problem
    return SDNet(boundary_size=geo.subdomain_grid().boundary_size, hidden_size=12,
                 trunk_layers=2, embedding_channels=(2,), rng=7)


def _retired_rank_program(predictor, comm, boundary_loop, max_iterations=200, tol=1e-4,
                          reference=None, target_mae=None, check_interval=1):
    """The rank's own copy of the iteration, before it ran ``LatticeRun``.

    Kept verbatim (less its per-row ``batched=False`` branch) as the oracle
    the rank program must equal byte for byte.
    """

    geometry = predictor.geometry
    timings = {}
    tic = time.perf_counter()

    grid = ProcessGrid(comm.size, ordering=predictor.ordering)
    layouts = [RankLayout.build(geometry, grid, r) for r in range(comm.size)]
    layout = layouts[comm.rank]
    plan = HaloExchangePlan.build(geometry, grid, layouts, comm.rank)
    solver = predictor.solver_factory()

    boundary_loop = np.asarray(boundary_loop, dtype=float)
    global_init = initialize_lattice_field(geometry, boundary_loop, predictor.init_mode)
    rows = slice(layout.row_offset, layout.row_offset + layout.local_shape[0])
    cols = slice(layout.col_offset, layout.col_offset + layout.local_shape[1])
    local = global_init[rows, cols].copy()
    local_reference = None if reference is None else np.asarray(reference)[rows, cols]
    timings["boundaries_io"] = time.perf_counter() - tic

    owned_r = layout.owned_row_range(geometry)
    owned_c = layout.owned_col_range(geometry)
    owned_rows = slice(owned_r[0] - layout.row_offset, owned_r[1] - layout.row_offset)
    owned_cols = slice(owned_c[0] - layout.col_offset, owned_c[1] - layout.col_offset)
    half = geometry.half
    lattice_mask_local = np.zeros(layout.local_shape, dtype=bool)
    lattice_mask_local[(np.arange(layout.local_shape[0]) + layout.row_offset) % half == 0, :] = True
    lattice_mask_local[:, (np.arange(layout.local_shape[1]) + layout.col_offset) % half == 0] = True
    owned_lattice = np.zeros_like(lattice_mask_local)
    owned_lattice[owned_rows, owned_cols] = lattice_mask_local[owned_rows, owned_cols]

    indices = build_plan(
        geometry, layout.local_anchors(),
        origin=(layout.part.row_start, layout.part.col_start),
        shape=layout.local_shape, lattice_mask=owned_lattice,
    )
    flat = local.reshape(-1)
    if local_reference is not None:
        local_reference = np.ascontiguousarray(local_reference).reshape(-1)[indices.lattice]

    previous = flat[indices.lattice]
    deltas, mae_history = [], []
    converged = False
    iterations = 0

    for iteration in range(1, max_iterations + 1):
        phase = (iteration - 1) % PHASES
        reads, writes = indices.reads[phase], indices.writes[phase]
        iterations = iteration

        if reads.size:
            tic = time.perf_counter()
            loops = flat[reads]
            timings["boundaries_io"] = timings.get("boundaries_io", 0.0) + time.perf_counter() - tic
            tic = time.perf_counter()
            predictions = solver.predict(loops, indices.center_coords)
            timings["inference"] = timings.get("inference", 0.0) + time.perf_counter() - tic
            tic = time.perf_counter()
            flat[writes] = predictions
            timings["boundaries_io"] = timings.get("boundaries_io", 0.0) + time.perf_counter() - tic

        tic = time.perf_counter()
        for peer in sorted(plan.sends):
            send_rows, send_cols = plan.sends[peer]
            comm.send(local[send_rows, send_cols].copy(), peer, tag=iteration)
        for peer in sorted(plan.recvs):
            recv_rows, recv_cols = plan.recvs[peer]
            local[recv_rows, recv_cols] = comm.recv(peer, tag=iteration)
        timings["sendrecv"] = timings.get("sendrecv", 0.0) + time.perf_counter() - tic

        if iteration % check_interval == 0:
            tic = time.perf_counter()
            current = flat[indices.lattice]
            local_stats = np.array([
                float(np.sum((current - previous) ** 2)),
                float(np.sum(previous ** 2)),
                float(np.sum(np.abs(
                    current - (local_reference if local_reference is not None else 0.0)))),
                float(current.size),
            ])
            global_stats = comm.allreduce(local_stats, op=ReduceOp.SUM)
            previous = current
            denom = np.sqrt(global_stats[1]) if global_stats[1] > 0 else 1.0
            delta = float(np.sqrt(global_stats[0]) / denom)
            deltas.append(delta)
            if reference is not None:
                mae = float(global_stats[2] / global_stats[3])
                mae_history.append((iteration, mae))
                if target_mae is not None and mae < target_mae:
                    converged = True
            window_active = any(
                indices.phase_has_anchors[(it - 1) % PHASES]
                for it in range(iteration - check_interval + 1, iteration + 1)
            )
            if delta < tol and iteration >= PHASES and window_active:
                converged = True
            timings["convergence_check"] = (
                timings.get("convergence_check", 0.0) + time.perf_counter() - tic
            )
            if converged:
                break

    with timed(timings, "inference"):
        accumulator = np.zeros(layout.local_shape)
        accumulate(
            flat, accumulator.reshape(-1),
            [(indices, np.zeros(1, dtype=np.intp))],
            lambda boundaries, points, _sessions: solver.predict(boundaries, points),
        )
    with timed(timings, "allgather"):
        gathered = comm.allgather(
            (layout.row_offset, layout.col_offset, accumulator, indices.counts))
    solution = None
    if comm.rank == 0:
        with timed(timings, "assembly"):
            global_sum = np.zeros((geometry.global_ny, geometry.global_nx))
            global_count = np.zeros_like(global_sum)
            for row_off, col_off, acc, cnt in gathered:
                r = slice(row_off, row_off + acc.shape[0])
                c = slice(col_off, col_off + acc.shape[1])
                global_sum[r, c] += acc
                global_count[r, c] += cnt
            solution = overlap_average(global_sum, global_count)
            solution = geometry.global_grid().insert_boundary(boundary_loop, solution)

    return DistributedMFPResult(
        rank=comm.rank, world_size=comm.size, solution=solution, iterations=iterations,
        converged=converged, deltas=deltas, mae_history=mae_history,
        timings=timings, comm_stats=comm.trace.as_dict(),
        halo_bytes_per_iteration=plan.bytes_per_iteration(),
    )


class TestRankLayout:
    def test_layout_extents(self, problem):
        geo, *_ = problem
        grid = ProcessGrid(4)
        layout = RankLayout.build(geo, grid, 0)
        assert layout.row_offset == 0 and layout.col_offset == 0
        assert layout.local_shape[0] == (layout.part.rows + 1) * geo.half + 1

    def test_owned_ranges_partition_global_grid(self, problem):
        geo, grid_obj, *_ = problem
        pgrid = ProcessGrid(4)
        covered_rows = np.zeros(geo.global_ny, dtype=int)
        covered_cols = np.zeros(geo.global_nx, dtype=int)
        for rank in range(4):
            layout = RankLayout.build(geo, pgrid, rank)
            r0, r1 = layout.owned_row_range(geo)
            c0, c1 = layout.owned_col_range(geo)
            covered_rows[r0:r1] += 1
            covered_cols[c0:c1] += 1
        # Each global row/col owned by exactly the ranks in one process row/col.
        assert covered_rows.min() >= 1 and covered_cols.min() >= 1

    def test_too_many_ranks_rejected(self):
        geo = MosaicGeometry(subdomain_points=9, subdomain_extent=0.5, steps_x=4, steps_y=4)
        pgrid = ProcessGrid(9, dims=(3, 3))
        # 3x3 anchors over 3x3 ranks is fine; 16 ranks is not.
        RankLayout.build(geo, pgrid, 0)
        # A 4x4 process grid over a 3x3 anchor grid leaves the last process
        # row/column without anchors.
        bad = ProcessGrid(16, dims=(4, 4))
        with pytest.raises(ValueError):
            RankLayout.build(geo, bad, 15)


class TestOwnership:
    def test_global_boundary_has_no_owner(self, problem):
        geo, *_ = problem
        assert _owner_anchor(geo, 0, 5) is None
        assert _owner_anchor(geo, geo.global_ny - 1, 3) is None

    def test_lattice_intersections_are_centre_points(self, problem):
        geo, *_ = problem
        h = geo.half
        assert _owner_anchor(geo, h, h) == (0, 0)
        assert _owner_anchor(geo, 2 * h, 3 * h) == (1, 2)

    def test_non_lattice_points_have_no_owner(self, problem):
        geo, *_ = problem
        assert _owner_anchor(geo, geo.half + 1, geo.half + 1) is None


class TestHaloPlanConsistency:
    @pytest.mark.parametrize("world_size", [2, 4, 6])
    def test_sends_match_peer_receives(self, problem, world_size):
        geo, *_ = problem
        pgrid = ProcessGrid(world_size)
        layouts = [RankLayout.build(geo, pgrid, r) for r in range(world_size)]
        plans = [HaloExchangePlan.build(geo, pgrid, layouts, r) for r in range(world_size)]
        for rank in range(world_size):
            for peer, (rows, cols) in plans[rank].sends.items():
                recv_rows, recv_cols = plans[peer].recvs[rank]
                # convert both to global indices and compare as ordered lists
                send_global = np.stack(
                    [rows + layouts[rank].row_offset, cols + layouts[rank].col_offset], axis=1
                )
                recv_global = np.stack(
                    [recv_rows + layouts[peer].row_offset, recv_cols + layouts[peer].col_offset],
                    axis=1,
                )
                assert np.array_equal(send_global, recv_global)

    def test_halo_volume_positive_for_multirank(self, problem):
        geo, *_ = problem
        pgrid = ProcessGrid(4)
        layouts = [RankLayout.build(geo, pgrid, r) for r in range(4)]
        plan = HaloExchangePlan.build(geo, pgrid, layouts, 0)
        assert plan.num_neighbors >= 2
        assert plan.bytes_per_iteration() > 0


class TestRetiredRankLoopOracle:
    """Every per-rank field equals the retired rank loop's byte for byte."""

    @pytest.mark.parametrize("backend", ["fd", "sdnet"])
    @pytest.mark.parametrize("world_size", [1, 2, 4])
    @pytest.mark.parametrize("ordering", ["row", "morton"])
    @pytest.mark.parametrize("criteria", [
        dict(max_iterations=40, tol=1e-3),
        dict(max_iterations=40, tol=0.0, target_mae=0.02, check_interval=3),
    ], ids=["tolerance", "reference"])
    def test_rank_results_are_bitwise_equal(
        self, problem, sdnet, backend, world_size, ordering, criteria
    ):
        geo, grid, loop, reference = problem
        factory = solver_factory_for(geo) if backend == "fd" else (
            lambda: SDNetSubdomainSolver(sdnet))
        if "target_mae" in criteria:
            criteria = dict(criteria, reference=reference)
        predictor = DistributedMosaicFlowPredictor(geo, factory, ordering=ordering)
        ours = predictor.run(world_size, loop, **criteria)
        oracle = run_spmd(
            world_size, lambda comm: _retired_rank_program(predictor, comm, loop, **criteria))
        for mine, theirs in zip(ours, oracle):
            assert mine.iterations == theirs.iterations
            assert mine.converged == theirs.converged
            assert np.array(mine.deltas).tobytes() == np.array(theirs.deltas).tobytes()
            assert mine.mae_history == theirs.mae_history
            assert mine.comm_stats == theirs.comm_stats
            assert mine.halo_bytes_per_iteration == theirs.halo_bytes_per_iteration
            assert set(mine.timings) == set(theirs.timings)
            if theirs.solution is None:
                assert mine.solution is None
            else:
                assert mine.solution.tobytes() == theirs.solution.tobytes()

    def test_grid_reaches_both_stop_rules(self, problem):
        """The oracle grid above is only as good as the paths it takes."""

        geo, grid, loop, reference = problem
        predictor = DistributedMosaicFlowPredictor(geo, solver_factory_for(geo))
        assert predictor.run(2, loop, max_iterations=40, tol=1e-3)[0].converged
        stopped = predictor.run(2, loop, max_iterations=40, tol=0.0, reference=reference,
                                target_mae=0.02, check_interval=3)[0]
        assert stopped.converged and stopped.iterations < 40


class TestDistributedExecution:
    @pytest.mark.parametrize("backend, steps", [
        ("fd", (6, 4)), ("fd", (4, 4)), ("fd", (8, 8)), ("fd", (6, 10)),
        ("sdnet", (4, 4)), ("sdnet", (16, 16)),
    ])
    def test_single_rank_matches_sequential_exactly(self, sdnet, backend, steps):
        geo = MosaicGeometry(subdomain_points=9, subdomain_extent=0.5,
                             steps_x=steps[0], steps_y=steps[1])
        loop = geo.global_grid().boundary_from_function(HARMONIC_FUNCTIONS["exp_sine"])
        factory = solver_factory_for(geo) if backend == "fd" else (
            lambda: SDNetSubdomainSolver(sdnet))
        sequential = MosaicFlowPredictor(geo, factory()).run(loop, max_iterations=24, tol=1e-4)
        distributed = DistributedMosaicFlowPredictor(geo, factory).run(
            1, loop, max_iterations=24, tol=1e-4)[0]
        # ``deltas`` are left out: the rank's sums and the predictor's dot
        # products round differently in the last bits.
        assert distributed.iterations == sequential.iterations
        assert distributed.converged == sequential.converged
        assert distributed.solution.tobytes() == sequential.solution.tobytes()

    @pytest.mark.parametrize("world_size", [2, 4])
    def test_multirank_converges_to_reference(self, problem, world_size):
        geo, grid, loop, reference = problem
        predictor = DistributedMosaicFlowPredictor(geo, solver_factory_for(geo))
        results = predictor.run(
            world_size, loop, max_iterations=200, tol=1e-8, reference=reference
        )
        root = results[0]
        assert root.solution is not None
        assert np.mean(np.abs(root.solution - reference)) < 1e-4
        # every rank agrees on the iteration count and convergence
        assert len({r.iterations for r in results}) == 1
        assert all(r.converged for r in results)
        # non-root ranks do not assemble the global solution
        assert all(r.solution is None for r in results[1:])

    def test_relaxed_synchronization_costs_accuracy_at_fixed_iterations(self, problem):
        """More ranks -> staler halos -> (slightly) worse lattice error at a
        fixed iteration budget.  This is the effect behind Table 4."""

        geo, grid, loop, reference = problem
        errors = {}
        for world_size in (1, 4):
            predictor = DistributedMosaicFlowPredictor(geo, solver_factory_for(geo))
            results = predictor.run(
                world_size, loop, max_iterations=30, tol=0.0, reference=reference
            )
            errors[world_size] = results[0].mae_history[-1][1]
        assert errors[4] >= errors[1] * 0.99  # never significantly better

    def test_morton_ordering_also_converges(self, problem):
        geo, grid, loop, reference = problem
        predictor = DistributedMosaicFlowPredictor(
            geo, solver_factory_for(geo), ordering="morton"
        )
        results = predictor.run(4, loop, max_iterations=150, tol=1e-8, reference=reference)
        assert np.mean(np.abs(results[0].solution - reference)) < 1e-3

    def test_comm_stats_and_timings_recorded(self, problem):
        geo, grid, loop, reference = problem
        predictor = DistributedMosaicFlowPredictor(geo, solver_factory_for(geo))
        results = predictor.run(4, loop, max_iterations=12, tol=0.0)
        for r in results:
            assert r.comm_stats["sends"] > 0
            assert r.comm_stats["allgathers"] == 1
            assert {"inference", "sendrecv", "allgather", "boundaries_io"} <= set(r.timings)

    def test_rank_timings_add_the_run_to_the_setup(self, problem):
        geo, grid, loop, reference = problem
        make = solver_factory_for(geo)

        def slow_factory():
            # Building the solver falls in the rank's setup ("Boundaries IO")
            time.sleep(0.05)
            return make()

        predictor = DistributedMosaicFlowPredictor(geo, slow_factory)
        results = predictor.run(2, loop, max_iterations=6, tol=0.0)
        for r in results:
            # The run's own boundaries_io is added to the setup's, not put in its place.
            assert r.timings["boundaries_io"] >= 0.045
            assert "convergence_check" in r.timings

    @pytest.mark.parametrize("run_kwargs, extra_points, message", [
        (dict(check_interval=0), 0, "check_interval must be at least 1"),
        (dict(check_interval=-1), 0, "check_interval must be at least 1"),
        (dict(max_iterations=0), 0, "max_iterations must be at least 1"),
        (dict(max_iterations=-3), 0, "max_iterations must be at least 1"),
        ({}, -1, "boundary loops must have shape"),
        ({}, 2, "boundary loops must have shape"),
    ], ids=["interval-0", "interval-neg", "budget-0", "budget-neg", "loop-short", "loop-long"])
    def test_bad_inputs_rejected_before_ranks_start(
        self, problem, run_kwargs, extra_points, message, monkeypatch
    ):
        geo, grid, loop, reference = problem
        built, forked = [], []

        def factory():
            built.append(1)
            return FDSubdomainSolver(geo.subdomain_grid(), method="direct")

        def start(*args, **kwargs):
            # A factory call in a forked rank would not reach ``built``.
            forked.append(args)
            return real_start(*args, **kwargs)

        real_start = processes.start
        monkeypatch.setattr(processes, "start", start)
        predictor = DistributedMosaicFlowPredictor(geo, factory)
        with pytest.raises(ValueError, match=message):
            predictor.run(2, np.resize(loop, len(loop) + extra_points),
                          **{"max_iterations": 4, **run_kwargs})
        assert built == [] and forked == []
        # The same call with good inputs forks one process per rank.
        predictor.run(2, loop, max_iterations=2)
        assert len(forked) == 2 and built == []

    def test_composite_geometry_rejected_at_construction(self):
        # The rank blocks split the bounding box's anchors, so an L-shape
        # would fail inside rank 0 with a boundary-length mismatch.
        geo = MosaicGeometry.from_domain(CompositeDomain.l_shape(6, 6, 3, 3), 9)
        with pytest.raises(ValueError, match="not a rectangle"):
            DistributedMosaicFlowPredictor(geo, solver_factory_for(geo))
        rectangle = MosaicGeometry.from_domain(CompositeDomain.rectangle(6, 4), 9)
        DistributedMosaicFlowPredictor(rectangle, solver_factory_for(rectangle))


class TestForkedRanks:
    """``run`` forks one process per rank; rank threads are its oracle."""

    @pytest.mark.parametrize("backend", ["fd", "sdnet"])
    @pytest.mark.parametrize("world_size", [2, 4])
    @pytest.mark.parametrize("criteria", [
        dict(max_iterations=40, tol=1e-3),
        dict(max_iterations=40, tol=0.0, target_mae=0.02, check_interval=3),
    ], ids=["tolerance", "reference"])
    def test_process_ranks_equal_thread_ranks_bitwise(
        self, problem, sdnet, backend, world_size, criteria
    ):
        geo, grid, loop, reference = problem
        factory = solver_factory_for(geo) if backend == "fd" else (
            lambda: SDNetSubdomainSolver(sdnet))
        if "target_mae" in criteria:
            criteria = dict(criteria, reference=reference)
        predictor = DistributedMosaicFlowPredictor(geo, factory)
        forked = predictor.run(world_size, loop, **criteria)
        threads = run_spmd(world_size, predictor.run_rank, args=(loop,), kwargs=criteria)
        assert multiprocessing.active_children() == []
        assert forked[0].solution.tobytes() == threads[0].solution.tobytes()
        for mine, theirs in zip(forked, threads, strict=True):
            assert (mine.rank, mine.world_size) == (theirs.rank, theirs.world_size)
            assert mine.iterations == theirs.iterations
            assert mine.converged == theirs.converged
            assert np.array(mine.deltas).tobytes() == np.array(theirs.deltas).tobytes()
            assert mine.mae_history == theirs.mae_history
            assert mine.comm_stats == theirs.comm_stats
            assert set(mine.timings) == set(theirs.timings)

    def test_rank_plans_are_built_once_per_world_size(self, problem):
        geo, grid, loop, reference = problem
        predictor = DistributedMosaicFlowPredictor(geo, solver_factory_for(geo))
        plans = predictor._rank_plans(2)
        assert predictor._rank_plans(2) is plans and predictor._rank_plans(4) is not plans
        predictor.run(2, loop, max_iterations=2)
        run_spmd(2, predictor.run_rank, args=(loop,), kwargs=dict(max_iterations=2))
        assert predictor._rank_plans(2) is plans

    def test_ranks_do_not_inherit_held_locks(self, problem):
        # A model the parent never ran: each rank traces its programs and
        # builds their plans, under tracing and memory accounting.
        # A geometry equal to the fixture's but fresh, so the ranks compute
        # its cached masks and boundary loop themselves.
        _, grid, loop, reference = problem
        geo = MosaicGeometry(subdomain_points=9, subdomain_extent=0.5, steps_x=6, steps_y=4)
        model = SDNet(boundary_size=geo.subdomain_grid().boundary_size, hidden_size=8,
                      trunk_layers=1, embedding_channels=(2,), rng=23)
        predictor = DistributedMosaicFlowPredictor(geo, lambda: SDNetSubdomainSolver(model))
        predictor._rank_plans(2)  # as ``run`` does before its fork
        tracer, accountant = enable_tracing(), enable_memory_accounting()
        locks = [
            PLAN_CACHE._lock, mosaic_solvers._PROGRAMS_LOCK, fd_solve._operator_lock,
            engine_trace._PATCH_LOCK, accountant._lock, tracer._lock,
            mosaic_distributed._PLANS_LOCK,
            # Python < 3.12: the lock a cached property computes under
            *(prop.lock for cls in (MosaicGeometry, CompositeDomain)
              for prop in vars(cls).values() if hasattr(prop, "lock")),
        ]
        held, release = threading.Event(), threading.Event()

        def holder():
            for lock in locks:
                lock.acquire()
            held.set()
            release.wait(timeout=60)
            for lock in reversed(locks):
                lock.release()

        # A rank stuck on an inherited lock fails the test instead of hanging it.
        watchdog = threading.Timer(
            60, lambda: [child.kill() for child in multiprocessing.active_children()])
        thread = threading.Thread(target=holder)
        thread.start()
        try:
            assert held.wait(timeout=30)
            watchdog.start()
            results = fork_spmd(2, predictor.run_rank, args=(loop,),
                                kwargs=dict(max_iterations=4, tol=0.0), timeout=60)
        finally:
            watchdog.cancel()
            release.set()
            thread.join()
            disable_tracing()
            disable_memory_accounting()
        assert [r.iterations for r in results] == [4, 4]
        assert results[0].solution is not None
