"""Distributed Mosaic Flow inference (Algorithm 2) on forked rank processes.

Solves the Laplace equation on a large domain with a Gaussian-process
boundary condition using the domain-parallel Mosaic Flow predictor on 1, 2
and 4 ranks (one process each, talking over pipes), and reports

* iterations needed to reach the MAE target (the Table 4 effect: a mild
  increase with the processor count caused by relaxed synchronization),
* the measured per-rank time breakdown (model inference, sendrecv, allgather,
  boundaries IO — the stacked categories of Figure 9a),
* the halo traffic per iteration and its projected cost on the paper's
  InfiniBand interconnect.

The subdomain solver is selectable: ``--solver fd`` uses the exact
finite-difference solver (isolates the distributed algorithm), ``--solver
sdnet`` trains a small SDNet first and uses it, as in the paper.

Run with::

    python examples/distributed_inference.py [--world-sizes 1 2 4] [--solver fd]
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.data import GaussianProcessSampler, generate_dataset
from repro.distributed import INTERCONNECTS
from repro.fd import solve_laplace_from_loop
from repro.models import SDNet
from repro.mosaic import (
    DistributedMosaicFlowPredictor,
    FDSubdomainSolver,
    MosaicGeometry,
    SDNetSubdomainSolver,
)
from repro.training import Trainer, TrainingConfig


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--world-sizes", type=int, nargs="+", default=[1, 2, 4])
    parser.add_argument("--steps", type=int, default=8,
                        help="half-subdomain steps per side of the global domain")
    parser.add_argument("--resolution", type=int, default=9,
                        help="grid points per subdomain side (odd)")
    parser.add_argument("--solver", choices=["fd", "sdnet"], default="fd")
    parser.add_argument("--target-mae", type=float, default=0.05)
    parser.add_argument("--max-iterations", type=int, default=400)
    parser.add_argument("--seed", type=int, default=0)
    return parser.parse_args()


def build_solver_factory(args, geometry):
    if args.solver == "fd":
        return lambda: FDSubdomainSolver(geometry.subdomain_grid(), method="direct")

    print("Training a small SDNet to use as the subdomain solver ...")
    dataset = generate_dataset(num_samples=48, resolution=args.resolution,
                               extent=(0.5, 0.5), seed=args.seed)
    train, val = dataset.split(validation_fraction=0.125, seed=args.seed)
    model = SDNet(boundary_size=dataset.grid.boundary_size, hidden_size=24,
                  trunk_layers=2, embedding_channels=(2,), rng=args.seed)
    config = TrainingConfig(epochs=4, batch_size=8, data_points_per_domain=32,
                            collocation_points_per_domain=16, max_lr=3e-3, seed=args.seed)
    Trainer(model, config, train, val).fit()
    return lambda: SDNetSubdomainSolver(model)


def main() -> None:
    args = parse_args()
    geometry = MosaicGeometry(
        subdomain_points=args.resolution,
        subdomain_extent=0.5,
        steps_x=args.steps,
        steps_y=args.steps,
    )
    grid = geometry.global_grid()
    print(f"Global domain: {grid.extent[0]:.1f} x {grid.extent[1]:.1f} "
          f"({grid.ny}x{grid.nx} grid, {geometry.num_subdomains} atomic subdomains)")

    sampler = GaussianProcessSampler(boundary_size=grid.boundary_size,
                                     perimeter=2 * sum(grid.extent), seed=args.seed)
    loop = grid.extract_boundary(grid.insert_boundary(sampler.sample_one()))
    print("Computing the finite-difference reference solution ...")
    reference = solve_laplace_from_loop(grid, loop, method="auto")

    solver_factory = build_solver_factory(args, geometry)
    network = INTERCONNECTS["infiniband-100g"]

    print(f"\n{'GPUs':>5} | {'iterations':>10} | {'MAE':>9} | {'inference':>10} | "
          f"{'sendrecv':>9} | {'allgather':>9} | {'halo/iter':>10} | {'IB est/iter':>11}")
    for world_size in args.world_sizes:
        predictor = DistributedMosaicFlowPredictor(geometry, solver_factory)
        results = predictor.run(
            world_size, loop,
            max_iterations=args.max_iterations,
            tol=0.0,
            reference=reference,
            target_mae=args.target_mae,
            check_interval=2,
        )
        root = results[0]
        mae = float(np.mean(np.abs(root.solution - reference)))
        inference = max(r.timings.get("inference", 0.0) for r in results)
        sendrecv = max(r.timings.get("sendrecv", 0.0) for r in results)
        allgather = max(r.timings.get("allgather", 0.0) for r in results)
        halo = max(r.halo_bytes_per_iteration for r in results)
        modeled = network.point_to_point(halo, messages=8) if world_size > 1 else 0.0
        print(f"{world_size:>5} | {root.iterations:>10} | {mae:>9.4f} | {inference:>9.2f}s | "
              f"{sendrecv:>8.2f}s | {allgather:>8.3f}s | {halo:>8d} B | {modeled*1e6:>9.1f}us")

    print("\nNote: each rank is a process, but all of them share this machine's cores,")
    print("so wall-clock shrinks only while there are cores to spare; iteration counts,")
    print("traffic volumes and the projected interconnect costs are the quantities to")
    print("compare with the paper.")


if __name__ == "__main__":
    main()
