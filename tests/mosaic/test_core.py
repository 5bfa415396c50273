"""The lattice-iteration core: sessions, empty runs, index plans, the bounded
plan cache, FD query maps, the section timer."""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.domains import CompositeDomain, CompositeMosaicGeometry
from repro.mosaic import FDSubdomainSolver, MosaicGeometry
from repro.mosaic.core import PLAN_CACHE, LatticeRun, PlanCache, Session, build_plan, timed
from repro.mosaic.solvers import QUERY_SETS_KEPT
from repro.obs import disable_tracing, enable_tracing
from repro.obs import memory as obs_memory
from repro.serving import Server, SolveRequest

L_SHAPE = CompositeMosaicGeometry(9, 0.5, CompositeDomain.l_shape(6, 6, 3, 3))


def _plan_arrays(plan):
    return [*plan.reads, *plan.writes, plan.lattice, plan.windows, plan.loop_offsets,
            plan.interior_offsets, plan.counts, plan.center_coords, plan.interior_coords]


RECT = MosaicGeometry(9, 0.5, steps_x=4, steps_y=4)


def _loops(count):
    return np.random.default_rng(count).normal(size=(count, RECT.global_boundary_size))


class TestSession:
    def test_scalars_broadcast_and_loops_become_float(self):
        loops = np.zeros((3, RECT.global_boundary_size), dtype=int)
        session = Session(RECT, loops, 1e-6, 4)
        assert session.loops.dtype == float and session.loops.shape == loops.shape
        assert session.tols.tolist() == [1e-6] * 3 and session.budgets.tolist() == [4] * 3
        assert Session(RECT, loops[0][None], [1e-3], [7]).budgets.tolist() == [7]

    @pytest.mark.parametrize("tols, budgets", [
        ([1e-6], [4]),                      # one value for two loops
        ([1e-6, 1e-6, 1e-6], [4, 4]),       # more tolerances than loops
        ([1e-6, 1e-6], [4, 4, 4]),
        (1e-6, [[4, 4]]),                   # not a vector
    ])
    def test_per_request_values_must_match_the_loops(self, tols, budgets):
        with pytest.raises(ValueError, match="one value per loop"):
            Session(RECT, _loops(2), tols, budgets)

    @pytest.mark.parametrize("budgets", [0, -3, [4, 0]])
    def test_budgets_below_one_are_rejected(self, budgets):
        with pytest.raises(ValueError, match="max_iterations must be at least 1"):
            Session(RECT, _loops(2), 1e-6, budgets)

    @pytest.mark.parametrize("shape", [(2, 5), (RECT.global_boundary_size,), (1, 2, 3)])
    def test_loops_of_the_wrong_shape_are_rejected(self, shape):
        with pytest.raises(ValueError, match="shape"):
            Session(RECT, np.zeros(shape), 1e-6, 4)


class TestEmptyRun:
    def test_no_sessions_iterate_nothing(self):
        run = LatticeRun([])
        calls = []

        def predict(boundaries, points, sessions):
            calls.append(boundaries.shape)
            return np.zeros((boundaries.shape[0], points.shape[0]))

        run.iterate(predict)
        assert run.outcomes(predict) == [] and run.outcomes() == []
        assert run.results == [] and calls == []


class TestLatticePlan:
    @pytest.mark.parametrize("geometry", [
        MosaicGeometry(9, 0.5, steps_x=6, steps_y=4),
        MosaicGeometry(5, 0.5, steps_x=4, steps_y=2),  # phases without anchors
        L_SHAPE,
    ])
    def test_flat_indices_are_the_geometry_s_index_arithmetic(self, geometry):
        plan = build_plan(geometry)
        nx = geometry.global_nx
        assert plan.shape == (geometry.global_ny, nx) and plan.size == plan.shape[0] * nx
        brow, bcol = geometry.boundary_loop_local_indices()
        crow, ccol = geometry.center_line_local_indices()
        for phase in range(4):
            anchors = geometry.anchors_for_phase(phase)
            assert plan.phase_has_anchors[phase] == bool(anchors)
            assert plan.reads[phase].shape == (len(anchors), brow.size)
            for row, anchor in enumerate(anchors):
                r0, c0 = geometry.anchor_window(anchor)
                np.testing.assert_array_equal(
                    plan.reads[phase][row], (r0 + brow) * nx + c0 + bcol)
                np.testing.assert_array_equal(
                    plan.writes[phase][row], (r0 + crow) * nx + c0 + ccol)
        np.testing.assert_array_equal(
            plan.lattice, np.flatnonzero(geometry.lattice_mask()))
        np.testing.assert_array_equal(
            plan.windows,
            [r * nx + c for r, c in map(geometry.anchor_window, geometry.anchors())])
        np.testing.assert_array_equal(plan.center_coords, geometry.center_line_local_coordinates())
        np.testing.assert_array_equal(plan.interior_coords, geometry.interior_local_coordinates())

    def test_arrays_are_read_only_and_coordinates_shared_by_identity(self):
        rect, wide = (build_plan(MosaicGeometry(9, 0.5, steps, 4)) for steps in (4, 6))
        composite = build_plan(L_SHAPE)
        for plan in (rect, wide, composite):
            assert all(not array.flags.writeable for array in _plan_arrays(plan))
            assert plan.nbytes >= sum(a.nbytes for a in (*plan.reads, *plan.writes))
        assert rect.center_coords is wide.center_coords is composite.center_coords
        assert rect.interior_coords is wide.interior_coords is composite.interior_coords
        other_grid = build_plan(MosaicGeometry(5, 0.5, 4, 4))
        assert other_grid.center_coords is not rect.center_coords


class TestPlanCache:
    def test_lru_cap_and_byte_accounting(self):
        accountant = obs_memory.enable_memory_accounting()
        try:
            accountant.clear()
            cache = PlanCache(capacity=3)
            geometries = [MosaicGeometry(5, 0.5, steps, 3) for steps in range(2, 8)]
            plans = [cache.get(geometry) for geometry in geometries[:3]]
            assert cache.get(geometries[0]) is plans[0]           # hit, now most recent
            cache.get(geometries[3])                              # evicts geometries[1]
            assert len(cache) == 3
            assert cache.get(geometries[0]) is plans[0]
            assert cache.get(geometries[1]) is not plans[1]       # was evicted, rebuilt
            for geometry in geometries:
                cache.get(geometry)
            assert len(cache) == cache.capacity == 3
            live = sum(cache.get(geometry).nbytes for geometry in geometries[-3:])
            assert accountant.live_bytes(obs_memory.LATTICE_PLANS) == live
        finally:
            obs_memory.disable_memory_accounting()

    def test_two_threads_on_one_geometry_get_one_surviving_plan(self):
        geometry = MosaicGeometry(9, 0.5, steps_x=12, steps_y=12)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                cache, barrier, got = PlanCache(capacity=2), threading.Barrier(2), []

                def ask():
                    barrier.wait(timeout=10)
                    got.append(cache.get(geometry))

                threads = [threading.Thread(target=ask) for _ in range(2)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert len(got) == 2 and got[0] is got[1] and len(cache) == 1
                assert cache.get(geometry) is got[0]
                reference = build_plan(geometry)
                for mine, fresh in zip(_plan_arrays(got[0]), _plan_arrays(reference)):
                    assert mine.tobytes() == fresh.tobytes()
        finally:
            sys.setswitchinterval(interval)

    def test_serving_200_distinct_geometries_leaves_the_cache_at_its_cap(self):
        server = Server()
        geometries = [
            MosaicGeometry(5, 0.5, steps_x=2 + index % 20, steps_y=2 + index // 20)
            for index in range(200)
        ]
        assert len(set(geometries)) == 200
        for geometry in geometries:
            loop = geometry.boundary_from_function(lambda x, y: x * x - y * y)
            server.submit(SolveRequest.create(geometry, loop, max_iterations=2))
        results = server.drain()
        assert len(results) == 200
        assert len(PLAN_CACHE) == PLAN_CACHE.capacity


class TestFDQueryMaps:
    def test_mutated_points_array_gets_the_answer_for_its_new_contents(self):
        grid = MosaicGeometry(9, 0.5, 4, 4).subdomain_grid()
        solver = FDSubdomainSolver(grid)
        boundaries = np.random.default_rng(0).normal(size=(3, grid.boundary_size))
        points = np.array([[grid.hx, grid.hy], [2 * grid.hx, 3 * grid.hy]])
        first = solver.predict(boundaries, points)
        np.testing.assert_array_equal(first, solver.predict(boundaries, points))  # cached
        moved = points.copy()
        points[0] = [4 * grid.hx, 4 * grid.hy]   # same array object, new contents
        second = solver.predict(boundaries, points)
        fresh = FDSubdomainSolver(grid)
        np.testing.assert_array_equal(second, fresh.predict(boundaries, points.copy()))
        np.testing.assert_array_equal(first, fresh.predict(boundaries, moved))
        assert not np.array_equal(first[:, 0], second[:, 0])

    def test_invalid_points_raise_on_first_sight_next_to_cached_sets(self):
        grid = MosaicGeometry(9, 0.5, 4, 4).subdomain_grid()
        solver = FDSubdomainSolver(grid)
        boundaries = np.zeros((1, grid.boundary_size))
        solver.predict(boundaries, np.array([[grid.hx, grid.hy]]))
        with pytest.raises(ValueError, match="only supports queries at grid points"):
            solver.predict(boundaries, np.array([[0.5 * grid.hx, grid.hy]]))
        with pytest.raises(ValueError, match="outside the subdomain grid"):
            solver.predict(boundaries, np.array([[-grid.hx, grid.hy]]))
        with pytest.raises(ValueError, match="outside the subdomain grid"):
            solver.predict(boundaries, np.array([[grid.hx, grid.ny * grid.hy]]))
        # ... and again: a rejected set was not remembered as valid.
        with pytest.raises(ValueError, match="only supports queries at grid points"):
            solver.predict(boundaries, np.array([[0.5 * grid.hx, grid.hy]]))

    def test_kept_query_sets_are_bounded(self):
        grid = MosaicGeometry(9, 0.5, 4, 4).subdomain_grid()
        solver = FDSubdomainSolver(grid)
        boundaries = np.random.default_rng(1).normal(size=(2, grid.boundary_size))
        fresh = FDSubdomainSolver(grid)
        for k in range(3 * QUERY_SETS_KEPT):
            points = np.array([[(k % 7 + 1) * grid.hx, (k // 7 + 1) * grid.hy]])
            np.testing.assert_array_equal(
                solver.predict(boundaries, points), fresh.predict(boundaries, points))
            assert len(solver._weights) <= QUERY_SETS_KEPT


class TestTimed:
    def test_timed_adds_seconds_and_emits_span(self):
        tracer = enable_tracing()
        try:
            timings = {"assembly": 0.5}
            with timed(timings, "assembly"):
                pass
            assert [r.name for r in tracer.roots] == ["assembly"]
            assert timings["assembly"] >= 0.5
        finally:
            disable_tracing()

    def test_timed_measures_elapsed(self):
        timings = {}
        with timed(timings, "inference"):
            time.sleep(0.01)
        assert timings["inference"] >= 0.009

    def test_timed_accumulates_and_leaves_other_names(self):
        timings = {"boundaries_io": 0.25}
        with timed(timings, "inference"):
            pass
        first = timings["inference"]
        with timed(timings, "inference"):
            time.sleep(0.005)
        assert timings["inference"] >= first + 0.004
        assert timings["boundaries_io"] == 0.25
        assert set(timings) == {"boundaries_io", "inference"}

    def test_timed_records_a_section_that_raises(self):
        tracer = enable_tracing()
        try:
            timings = {}
            with pytest.raises(RuntimeError):
                with timed(timings, "assembly"):
                    time.sleep(0.005)
                    raise RuntimeError("section failed")
            assert timings["assembly"] >= 0.004
            assert [r.name for r in tracer.roots] == ["assembly"]
        finally:
            disable_tracing()
