"""Serving demo: 120 mixed BVP requests through the batched inference server.

The demo drives the ``repro.serving`` subsystem the way a production client
would:

1. generate a deterministic stream of 120 boundary value problems — two
   domain geometries, random harmonic-mix boundary data, and a realistic
   share of repeated queries,
2. submit them all to a :class:`repro.serving.Server` configured with
   dynamic batching and an LRU solution cache,
3. print the server's stats report (fused runs, cache hit rate, latency
   percentiles) — batching + caching make *far fewer* solver runs than there
   are requests, and
4. verify every served solution against a standalone
   :class:`repro.mosaic.MosaicFlowPredictor` solve of the same BVP
   (max |difference| must be below 1e-8).

Run with::

    python examples/serving_demo.py [--requests 120] [--seed 0]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.mosaic import FDSubdomainSolver, MosaicFlowPredictor, MosaicGeometry
from repro.pde import HARMONIC_FUNCTIONS
from repro.serving import BatchPolicy, Server, SolutionCache, SolveRequest
from repro.utils import seeded_rng

SUBDOMAIN_POINTS = 9
GEOMETRIES = [
    MosaicGeometry(subdomain_points=SUBDOMAIN_POINTS, subdomain_extent=0.5,
                   steps_x=4, steps_y=4),
    MosaicGeometry(subdomain_points=SUBDOMAIN_POINTS, subdomain_extent=0.5,
                   steps_x=6, steps_y=4),
]
TOL = 1e-7
MAX_ITERATIONS = 200
DUPLICATE_SHARE = 0.25  # fraction of traffic that repeats an earlier query


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=120,
                        help="number of solve requests to submit (>= 100)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-batch", type=int, default=16,
                        help="dynamic batcher size limit")
    return parser.parse_args()


def make_request_stream(num_requests: int, seed: int) -> list[SolveRequest]:
    """Deterministic mixed traffic: two geometries, GP-like harmonic mixes."""

    rng = seeded_rng(seed)
    names = sorted(HARMONIC_FUNCTIONS)
    requests: list[SolveRequest] = []
    fresh: list[SolveRequest] = []
    for _ in range(num_requests):
        if fresh and rng.random() < DUPLICATE_SHARE:
            # repeat an earlier query (same canonical BVP, new request id)
            earlier = fresh[rng.integers(len(fresh))]
            request = SolveRequest.create(
                earlier.geometry, earlier.boundary_loop,
                tol=TOL, max_iterations=MAX_ITERATIONS,
            )
        else:
            geometry = GEOMETRIES[int(rng.integers(len(GEOMETRIES)))]
            weights = rng.normal(size=len(names))
            loop = geometry.global_grid().boundary_from_function(
                lambda x, y, w=weights: sum(
                    wi * HARMONIC_FUNCTIONS[name](x, y) for wi, name in zip(w, names)
                )
            )
            request = SolveRequest.create(
                geometry, loop, tol=TOL, max_iterations=MAX_ITERATIONS
            )
            fresh.append(request)
        requests.append(request)
    return requests


def main() -> None:
    args = parse_args()
    requests = make_request_stream(args.requests, args.seed)
    print(f"submitting {len(requests)} requests "
          f"({len(GEOMETRIES)} geometries, ~{DUPLICATE_SHARE:.0%} repeats)")

    server = Server(
        policy=BatchPolicy(max_batch_size=args.max_batch, max_wait_seconds=60.0),
        cache=SolutionCache(capacity=256),
    )
    tic = time.perf_counter()
    ids = [server.submit(request) for request in requests]
    results = server.drain()
    served_seconds = time.perf_counter() - tic

    print(server.stats.report())
    print(f"cache: {server.cache.stats()}")
    print(f"served {len(results)} requests in {served_seconds:.2f}s "
          f"({len(results) / served_seconds:.1f} req/s)")

    assert len(results) == len(requests)
    assert server.stats.fused_runs < len(requests), (
        "batching + caching should need fewer solver runs than requests"
    )
    print(f"solver runs: {server.stats.fused_runs} for {len(requests)} requests "
          f"({server.stats.solver_runs_saved} saved)")

    # -- verify against standalone solves -------------------------------------
    print("verifying every request against a standalone MosaicFlowPredictor run...")
    solvers = {g: FDSubdomainSolver(g.subdomain_grid(), method="direct")
               for g in GEOMETRIES}
    worst = 0.0
    tic = time.perf_counter()
    for request, request_id in zip(requests, ids):
        reference = MosaicFlowPredictor(
            request.geometry, solvers[request.geometry], batched=True
        ).run(request.boundary_loop, max_iterations=MAX_ITERATIONS, tol=TOL)
        difference = float(np.max(np.abs(results[request_id].solution
                                         - reference.solution)))
        worst = max(worst, difference)
    sequential_seconds = time.perf_counter() - tic

    assert worst < 1e-8, f"served solutions diverged from standalone solves: {worst}"
    print(f"max |served - standalone| = {worst:.2e} (< 1e-8) across "
          f"{len(requests)} requests")
    print(f"standalone solves took {sequential_seconds:.2f}s vs "
          f"{served_seconds:.2f}s served "
          f"({sequential_seconds / max(served_seconds, 1e-9):.1f}x)")


if __name__ == "__main__":
    main()
