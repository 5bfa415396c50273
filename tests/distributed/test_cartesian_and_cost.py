"""Process grids, block partitioning and the alpha-beta cost model."""

import numpy as np
import pytest

from repro.distributed import (
    INTERCONNECTS,
    AlphaBetaModel,
    BlockPartition,
    CommunicationTrace,
    ProcessGrid,
    block_range,
    choose_grid_dims,
    estimate_trace_time,
    morton_encode,
)


class TestGridDims:
    @pytest.mark.parametrize(
        "size, expected", [(1, (1, 1)), (4, (2, 2)), (6, (2, 3)), (8, (2, 4)), (32, (4, 8)), (7, (1, 7))]
    )
    def test_choose_grid_dims(self, size, expected):
        assert choose_grid_dims(size) == expected

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            choose_grid_dims(0)


class TestBlockRange:
    def test_balanced_partition_covers_everything(self):
        ranges = [block_range(10, 3, i) for i in range(3)]
        assert ranges == [(0, 4), (4, 7), (7, 10)]

    def test_errors(self):
        with pytest.raises(ValueError):
            block_range(10, 0, 0)
        with pytest.raises(ValueError):
            block_range(10, 3, 3)


class TestMorton:
    def test_interleaving(self):
        assert morton_encode(0, 0) == 0
        assert morton_encode(0, 1) == 1
        assert morton_encode(1, 0) == 2
        assert morton_encode(1, 1) == 3
        assert morton_encode(2, 2) == 12

    def test_morton_ordering_is_a_permutation(self):
        grid = ProcessGrid(16, ordering="morton")
        coords = {grid.coords(r) for r in range(16)}
        assert len(coords) == 16


class TestProcessGrid:
    def test_row_scan_mapping(self):
        grid = ProcessGrid(6)  # 2 x 3
        assert grid.coords(0) == (0, 0)
        assert grid.coords(4) == (1, 1)
        assert grid.rank_at(1, 2) == 5

    def test_neighbors_interior_corner_edge(self):
        grid = ProcessGrid(9, dims=(3, 3))
        assert len(grid.neighbors(4)) == 8           # interior
        assert len(grid.neighbors(0)) == 3            # corner
        assert len(grid.neighbors(1)) == 5            # edge
        assert len(grid.orthogonal_neighbors(4)) == 4
        assert len(grid.diagonal_neighbors(4)) == 4

    def test_partition_covers_lattice_without_overlap(self):
        grid = ProcessGrid(6, dims=(2, 3))
        coverage = np.zeros((10, 9), dtype=int)
        for rank in range(6):
            p = grid.partition(10, 9, rank)
            coverage[p.row_start: p.row_stop, p.col_start: p.col_stop] += 1
        assert np.all(coverage == 1)

    def test_partition_contains(self):
        p = BlockPartition(2, 5, 1, 4)
        assert p.contains(3, 2) and not p.contains(5, 2)
        assert p.rows == 3 and p.cols == 3 and p.count == 9

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            ProcessGrid(6, dims=(2, 2))
        with pytest.raises(ValueError):
            ProcessGrid(4, ordering="hilbert")


class TestAlphaBetaModel:
    def test_point_to_point_cost(self):
        model = AlphaBetaModel(alpha=1e-5, beta=1e9)
        assert model.point_to_point(1e6, messages=2) == pytest.approx(2e-5 + 1e-3)

    def test_ring_collectives_scale_with_world_size(self):
        model = AlphaBetaModel(alpha=1e-6, beta=1e9)
        assert model.ring_allreduce(1e6, 1) == 0.0
        assert model.ring_allreduce(1e6, 8) > model.ring_allgather(1e6 / 8, 8)
        assert model.broadcast(1e6, 16) > model.broadcast(1e6, 2)

    def test_latency_vs_bandwidth_regimes(self):
        slow_latency = AlphaBetaModel(alpha=1e-3, beta=1e12)
        fast_latency = AlphaBetaModel(alpha=1e-7, beta=1e12)
        # For tiny messages, latency dominates (the paper's mpi4py observation).
        assert slow_latency.point_to_point(64) > 100 * fast_latency.point_to_point(64)

    def test_paper_formula_decreases_with_sqrt_p(self):
        model = INTERCONNECTS["infiniband-100g"]
        t4 = model.mfp_iteration_comm(1000, 2048, 2, 4)
        t16 = model.mfp_iteration_comm(1000, 2048, 2, 16)
        assert t16 < t4
        assert model.mfp_iteration_comm(1000, 2048, 2, 1) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            AlphaBetaModel(alpha=-1.0, beta=1e9)

    def test_interconnect_table_contents(self):
        assert set(INTERCONNECTS) >= {"infiniband-100g", "pcie-32g", "nvlink-200g", "nvlink-600g"}
        assert INTERCONNECTS["nvlink-600g"].beta > INTERCONNECTS["pcie-32g"].beta


class TestTraceEstimation:
    def test_breakdown_keys_and_totals(self):
        trace = CommunicationTrace()
        trace.record_send(8000)
        trace.record_recv(8000)
        trace.record_allreduce(1_000_000)
        trace.record_allgather(500_000)
        model = AlphaBetaModel(alpha=1e-5, beta=1e9)
        estimate = estimate_trace_time(trace, model, world_size=8)
        assert set(estimate) == {"sendrecv", "allreduce", "allgather", "broadcast", "total"}
        assert estimate["total"] == pytest.approx(
            estimate["sendrecv"] + estimate["allreduce"] + estimate["allgather"] + estimate["broadcast"]
        )
        assert estimate["allreduce"] > 0 and estimate["allgather"] > 0

    def test_empty_trace_costs_nothing(self):
        estimate = estimate_trace_time(CommunicationTrace(), AlphaBetaModel(1e-6, 1e9), 4)
        assert estimate["total"] == 0.0

