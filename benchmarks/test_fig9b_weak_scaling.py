"""Figure 9b: weak scaling of the distributed MFP.

Each GPU owns a fixed 16x8 spatial block (1024x512 resolution) and the
algorithm runs for 2000 iterations.  The computation time per rank stays
essentially flat (the only extra work is averaging processor-subdomain
overlaps), while communication grows by ~4x from 2 to 8 GPUs — as ranks gain
neighbours — and then plateaus, dominated by message latency.

The reproduction keeps the per-rank anchor block fixed while growing the
global domain with the rank count, runs a fixed iteration budget, and reports
measured per-rank computation/communication plus halo message volumes; the
paper-scale curve is regenerated from the cost model.
"""

import numpy as np

from _bench_utils import print_table
from repro.distributed import INTERCONNECTS
from repro.mosaic import DistributedMosaicFlowPredictor, FDSubdomainSolver, MosaicGeometry
from repro.perfmodel import GPU_SPECS, MFPCostModel, weak_scaling_curve

#: per-rank block: 2x4 anchors (1x2 spatial units per rank)
PER_RANK_STEPS = (4, 2)          # (steps_x, steps_y) per rank
WORLD_SIZES = [1, 2, 4]
ITERATIONS = 24


def _geometry_for(world_size: int) -> MosaicGeometry:
    """Grow the global domain so each rank keeps the same anchor block."""

    from repro.distributed import choose_grid_dims

    rows, cols = choose_grid_dims(world_size)
    return MosaicGeometry(
        subdomain_points=9,
        subdomain_extent=0.5,
        steps_x=PER_RANK_STEPS[0] * cols,
        steps_y=PER_RANK_STEPS[1] * rows,
    )


def test_fig9b_weak_scaling(benchmark):
    rows = []
    computation = {}
    communication = {}
    halo_bytes = {}

    def run_world(world_size):
        geometry = _geometry_for(world_size)
        grid = geometry.global_grid()
        loop = grid.boundary_from_function(lambda x, y: np.sin(2 * np.pi * x) + 0.5 * y)
        predictor = DistributedMosaicFlowPredictor(
            geometry, lambda: FDSubdomainSolver(geometry.subdomain_grid(), method="direct")
        )
        return predictor.run(world_size, loop, max_iterations=ITERATIONS, tol=0.0,
                             check_interval=ITERATIONS)

    results_1 = benchmark.pedantic(lambda: run_world(1), rounds=1, iterations=1)
    all_results = {1: results_1}
    for world_size in WORLD_SIZES[1:]:
        all_results[world_size] = run_world(world_size)

    for world_size in WORLD_SIZES:
        results = all_results[world_size]
        comp = max(r.timings.get("inference", 0.0) + r.timings.get("boundaries_io", 0.0)
                   for r in results)
        comm = max(r.timings.get("sendrecv", 0.0) + r.timings.get("allgather", 0.0)
                   for r in results)
        computation[world_size] = comp
        communication[world_size] = comm
        halo_bytes[world_size] = max(r.halo_bytes_per_iteration for r in results)
        send_counts = max(r.comm_stats["sends"] for r in results)
        rows.append([
            world_size,
            f"{comp:.3f} s",
            f"{comm:.3f} s",
            halo_bytes[world_size],
            send_counts,
        ])

    print_table(
        f"Figure 9b — weak scaling, fixed per-rank block, {ITERATIONS} iterations (measured)",
        ["GPUs", "computation", "communication", "halo bytes/iter", "messages sent"],
        rows,
    )

    # Paper-scale projection (1024x512 per GPU, 2000 iterations, A30 + IB).
    cost_model = MFPCostModel.from_gpu(
        GPU_SPECS["A30"], INTERCONNECTS["infiniband-100g"],
        boundary_size=128, hidden=256, trunk_layers=6, subdomain_resolution=32,
    )
    projected = weak_scaling_curve(cost_model, (512, 1024), [1, 2, 4, 8, 16, 32], iterations=2000)
    print_table(
        "Figure 9b — projected weak scaling at paper scale (per-GPU 1024x512, 2000 iterations)",
        ["GPUs", "computation", "sendrecv", "allgather", "total"],
        [[p.world_size, f"{p.computation:.1f} s", f"{p.sendrecv:.2f} s",
          f"{p.allgather:.3f} s", f"{p.total:.1f} s"] for p in projected],
    )

    # --- shape assertions -----------------------------------------------------
    # Weak scaling invariant: each rank owns the same number of atomic
    # subdomains regardless of the world size, so the per-rank *work* is
    # constant.  (Measured wall-clock cannot show this on a single shared CPU
    # core — all simulated ranks time-slice one core — so the structural
    # property is asserted instead and the measured numbers are reported.)
    from repro.distributed import ProcessGrid
    from repro.mosaic.distributed import RankLayout

    per_rank_budget = PER_RANK_STEPS[0] * PER_RANK_STEPS[1]
    for world_size in WORLD_SIZES:
        geometry = _geometry_for(world_size)
        pgrid = ProcessGrid(world_size)
        counts = [
            RankLayout.build(geometry, pgrid, rank).part.count for rank in range(world_size)
        ]
        # Every rank's anchor block stays within the fixed per-rank budget —
        # the work per rank does not grow with the world size.  (At this tiny
        # scale the -1 anchor per axis makes blocks uneven by up to an anchor
        # row/column; at paper scale the imbalance is negligible.)
        assert max(counts) <= per_rank_budget
        assert min(counts) >= 1
    # Communication appears with P > 1 and grows as ranks gain neighbours
    # (on one rank only timer overhead and the trivial self-allgather remain).
    assert communication[1] < 5e-3
    assert halo_bytes[1] == 0
    assert halo_bytes[WORLD_SIZES[-1]] >= halo_bytes[2] > 0
    # Projected paper-scale curve: communication grows 2 -> 8 and then flattens.
    comm_proj = {p.world_size: p.sendrecv + p.allgather for p in projected}
    assert comm_proj[8] > comm_proj[2]
    assert comm_proj[32] < comm_proj[8] * 2.0
    benchmark.extra_info["halo_bytes_per_iteration"] = {str(k): int(v) for k, v in halo_bytes.items()}
