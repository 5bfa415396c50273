"""Distributed Mosaic Flow predictor (Algorithm 2) on the simulated cluster."""

import numpy as np
import pytest

from repro.distributed import ProcessGrid
from repro.fd import solve_laplace_from_loop
from repro.mosaic import (
    DistributedMosaicFlowPredictor,
    FDSubdomainSolver,
    MosaicFlowPredictor,
    MosaicGeometry,
)
from repro.mosaic.distributed import HaloExchangePlan, RankLayout, _owner_anchor
from repro.mosaic.domain import CompositeDomain
from repro.pde import HARMONIC_FUNCTIONS


@pytest.fixture(scope="module")
def problem():
    geo = MosaicGeometry(subdomain_points=9, subdomain_extent=0.5, steps_x=6, steps_y=4)
    grid = geo.global_grid()
    loop = grid.boundary_from_function(HARMONIC_FUNCTIONS["exp_sine"])
    reference = solve_laplace_from_loop(grid, loop, method="direct")
    return geo, grid, loop, reference


def solver_factory_for(geometry):
    return lambda: FDSubdomainSolver(geometry.subdomain_grid(), method="direct")


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


class TestDistributedExecution:
    def test_single_rank_matches_sequential_exactly(self, problem):
        geo, grid, loop, reference = problem
        sequential = MosaicFlowPredictor(geo, solver_factory_for(geo)(), batched=True)
        seq_result = sequential.run(loop, max_iterations=24, tol=0.0, assemble=True)
        distributed = DistributedMosaicFlowPredictor(geo, solver_factory_for(geo))
        dist_results = distributed.run(1, loop, max_iterations=24, tol=0.0)
        assert np.allclose(dist_results[0].solution, seq_result.solution)

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

    def test_composite_geometry_rejected_at_construction(self):
        # The rank blocks split the bounding box's anchors, so an L-shape
        # would fail inside rank 0 with a boundary-length mismatch.
        geo = MosaicGeometry.from_domain(CompositeDomain.l_shape(6, 6, 3, 3), 9)
        with pytest.raises(ValueError, match="not a rectangle"):
            DistributedMosaicFlowPredictor(geo, solver_factory_for(geo))
        rectangle = MosaicGeometry.from_domain(CompositeDomain.rectangle(6, 4), 9)
        DistributedMosaicFlowPredictor(rectangle, solver_factory_for(rectangle))
