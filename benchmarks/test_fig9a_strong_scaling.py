"""Figure 9a and Table 4: strong scaling of the distributed MFP.

The paper solves a 32x32 spatial domain (2048x2048 resolution, 4096 atomic
subdomains) to MAE 0.05 on 1..32 A30 GPUs.  Total runtime falls from ~880 s
to ~90 s (about 10x), the share of communication grows with the GPU count,
and Table 4 reports a mild increase in the iterations needed to reach the MAE
target (3200 -> 3500) caused by the relaxed synchronization.

The reproduction runs the actual distributed algorithm (threads) on a
scaled-down domain with the exact subdomain solver, measuring (i) iterations
to the MAE target per world size — the Table 4 analogue — and (ii) the
per-category time breakdown.  It then regenerates the paper-scale curve from
the Section 4.3 cost model calibrated with Table 2 numbers.
"""

import numpy as np

from _bench_utils import print_table
from repro.distributed import INTERCONNECTS
from repro.fd import solve_laplace_from_loop
from repro.mosaic import DistributedMosaicFlowPredictor, FDSubdomainSolver, MosaicGeometry
from repro.perfmodel import GPU_SPECS, MFPCostModel, strong_scaling_curve

WORLD_SIZES = [1, 2, 4]
TARGET_MAE = 0.05
#: Table 4 of the paper: iterations to MAE 0.05 per GPU count
PAPER_TABLE4 = {1: 3200, 2: 3250, 4: 3250, 8: 3300, 16: 3400, 32: 3500}


def test_fig9a_strong_scaling_and_table4(benchmark, bench_geometry, gp_boundary_problem):
    geometry = bench_geometry
    grid = geometry.global_grid()
    from repro.data import GaussianProcessSampler

    sampler = GaussianProcessSampler(
        boundary_size=grid.boundary_size, perimeter=2 * sum(grid.extent), seed=3
    )
    loop = grid.extract_boundary(grid.insert_boundary(sampler.sample_one()))
    reference = solve_laplace_from_loop(grid, loop, method="direct")

    def solver_factory():
        return FDSubdomainSolver(geometry.subdomain_grid(), method="direct")

    iterations_to_target = {}
    breakdowns = {}

    def run_world(world_size):
        predictor = DistributedMosaicFlowPredictor(geometry, solver_factory)
        return predictor.run(
            world_size, loop, max_iterations=400, tol=0.0,
            reference=reference, target_mae=TARGET_MAE, check_interval=2,
        )

    # Benchmark the single-rank configuration; run the rest once each.
    results_1 = benchmark.pedantic(lambda: run_world(1), rounds=1, iterations=1)
    all_results = {1: results_1}
    for world_size in WORLD_SIZES[1:]:
        all_results[world_size] = run_world(world_size)

    table4_rows = []
    fig9a_rows = []
    for world_size in WORLD_SIZES:
        results = all_results[world_size]
        root = results[0]
        iterations_to_target[world_size] = root.iterations
        # Per-rank maxima of the timing categories (the critical path).
        inference = max(r.timings.get("inference", 0.0) for r in results)
        sendrecv = max(r.timings.get("sendrecv", 0.0) for r in results)
        allgather = max(r.timings.get("allgather", 0.0) for r in results)
        io = max(r.timings.get("boundaries_io", 0.0) for r in results)
        breakdowns[world_size] = (inference, sendrecv, allgather, io)
        table4_rows.append([
            world_size, root.iterations, root.converged,
            f"paper: {PAPER_TABLE4.get(world_size, '-')}"
        ])
        fig9a_rows.append([
            world_size,
            f"{inference:.3f} s",
            f"{sendrecv:.3f} s",
            f"{allgather:.3f} s",
            f"{io:.3f} s",
        ])

    print_table(
        f"Table 4 — iterations to reach MAE {TARGET_MAE} (measured, scaled-down domain)",
        ["GPUs", "iterations", "converged", "paper (2048^2 domain)"],
        table4_rows,
    )
    print_table(
        "Figure 9a — measured per-rank time breakdown (critical path, CPU threads)",
        ["GPUs", "model inference", "sendrecv", "allgather", "boundaries IO"],
        fig9a_rows,
    )

    # Paper-scale projection from the Section 4.3 cost model.
    cost_model = MFPCostModel.from_gpu(
        GPU_SPECS["A30"], INTERCONNECTS["infiniband-100g"],
        boundary_size=128, hidden=256, trunk_layers=6, subdomain_resolution=32,
    )
    projected = strong_scaling_curve(cost_model, 2048, sorted(PAPER_TABLE4), PAPER_TABLE4)
    projection_rows = [
        [p.world_size, p.iterations, f"{p.total:.1f} s", f"{p.communication_fraction:.2f}",
         f"{projected[0].total / p.total:.1f}x"]
        for p in projected
    ]
    print_table(
        "Figure 9a — projected strong scaling at paper scale (2048x2048, Table 4 iterations)",
        ["GPUs", "iterations", "total time", "comm fraction", "speedup"],
        projection_rows,
    )

    # --- shape assertions -----------------------------------------------------
    # Table 4: iterations never decrease with more ranks (relaxed synchronization).
    iters = [iterations_to_target[w] for w in WORLD_SIZES]
    assert all(b >= a for a, b in zip(iters, iters[1:]))
    # Growth is mild (paper: <10 % from 1 to 32 GPUs; allow 30 % on the tiny domain).
    assert iters[-1] <= iters[0] * 1.3
    # Every configuration reaches the MAE target.
    assert all(all_results[w][0].converged for w in WORLD_SIZES)
    # Communication is negligible on one rank (only timer overhead of the
    # empty exchange loop) and real in multi-rank runs.
    assert breakdowns[1][1] < 1e-2
    assert breakdowns[WORLD_SIZES[-1]][1] > breakdowns[1][1]
    # Paper-scale projection: total time decreases, communication fraction grows.
    totals = [p.total for p in projected]
    fractions = [p.communication_fraction for p in projected]
    assert totals[-1] < totals[0]
    assert 4.0 < totals[0] / totals[-1] < 32.0
    assert all(b >= a for a, b in zip(fractions, fractions[1:]))

    benchmark.extra_info["iterations_to_target"] = {str(k): int(v) for k, v in iterations_to_target.items()}
    benchmark.extra_info["projected_speedup_32"] = float(totals[0] / totals[-1])
