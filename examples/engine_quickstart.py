"""Inference-engine quickstart: trace, inspect, and serve a compiled SDNet.

Walks the whole ``repro.engine`` pipeline on a small SDNet:

1. trace one forward pass into a static operator graph and print it,
2. run the compiler passes (constant folding, gather lowering, elementwise
   fusion, dead-code elimination) and print the optimized graph,
3. verify bitwise parity and measure the per-call speedup over eager mode,
4. run a full Mosaic Flow solve on the L-shape composite domain from the
   composite-geometry work — the solver's only inference path is the
   model's compiled program, one per query-point set — and show what it
   cost: three traces and one plan per point set, whatever the row counts.

Run with::

    python examples/engine_quickstart.py [--steps 6] [--notch 3] [--seed 0]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.domains import CompositeDomain, CompositeMosaicGeometry
from repro.engine import compile_module, optimize, trace
from repro.models import SDNet
from repro.mosaic import MosaicFlowPredictor, SDNetSubdomainSolver
from repro.mosaic.solvers import inference_program
from repro.utils import seeded_rng


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=6,
                        help="bounding-box size in half-subdomain steps")
    parser.add_argument("--notch", type=int, default=3,
                        help="notch size in half-subdomain steps")
    parser.add_argument("--subdomain-points", type=int, default=9,
                        help="grid points per subdomain side (odd)")
    parser.add_argument("--seed", type=int, default=0)
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    rng = seeded_rng(args.seed)

    # ------------------------------------------------------------ geometry
    domain = CompositeDomain.l_shape(args.steps, args.steps, args.notch, args.notch)
    geometry = CompositeMosaicGeometry(args.subdomain_points, 0.5, domain)
    boundary_size = geometry.subdomain_grid().boundary_size
    model = SDNet(boundary_size=boundary_size, hidden_size=24, trunk_layers=2,
                  embedding_channels=(2,), rng=rng)

    # ------------------------------------------------------------ trace
    batch = 8
    g = rng.normal(size=(batch, boundary_size))
    x = rng.normal(size=(batch, 15, 2))
    raw = trace(model, g, x)
    print(f"[1/4] Traced one SDNet forward pass: {len(raw)} nodes")
    print(str(raw))

    # ------------------------------------------------------------ optimize
    optimized = optimize(raw)
    print(f"\n[2/4] After compiler passes: {len(optimized)} nodes")
    print(str(optimized))
    print("  op histogram:", dict(sorted(optimized.op_counts().items())))

    # ------------------------------------------------------------ parity + speed
    compiled = compile_module(model)
    eager_out = model.predict(g, x)
    compiled_out = compiled.predict(g, x)
    assert eager_out.tobytes() == compiled_out.tobytes()
    reps = 100
    tic = time.perf_counter()
    for _ in range(reps):
        model.predict(g, x)
    eager_s = (time.perf_counter() - tic) / reps
    tic = time.perf_counter()
    for _ in range(reps):
        compiled.predict(g, x)
    compiled_s = (time.perf_counter() - tic) / reps
    print(f"\n[3/4] Forward parity: bitwise identical; "
          f"eager {eager_s * 1e6:.0f}us vs compiled {compiled_s * 1e6:.0f}us "
          f"({eager_s / compiled_s:.2f}x) at batch {batch}")

    # ------------------------------------------------------------ composite solve
    weights = rng.normal(size=3)
    loop = geometry.boundary_from_function(
        lambda px, py: weights[0] * (px * px - py * py)
        + weights[1] * px * py + weights[2] * (px - 2.0 * py)
    )
    print("\n[4/4] Mosaic Flow solve on the L-shape composite domain ...")
    solver = SDNetSubdomainSolver(model)
    predictor = MosaicFlowPredictor(geometry, solver, batched=True)
    tic = time.perf_counter()
    result = predictor.run(loop, max_iterations=200, tol=1e-6)
    print(f"  {result.iterations} iterations, converged={result.converged}, "
          f"{time.perf_counter() - tic:.2f}s, {solver.inference_calls} forwards")
    for name, points in (("centre lines", geometry.center_line_local_coordinates()),
                         ("interior", geometry.interior_local_coordinates())):
        stats = inference_program(model, points).stats
        print(f"  {name:>12} program ({len(points)} points): {stats.calls} calls, "
              f"{stats.specializations + 1} row counts, {stats.traces} traces, "
              f"{stats.plan_builds} plan, {stats.plan_bytes / 1e6:.2f} MB")


if __name__ == "__main__":
    main()
