"""Serving throughput: batched vs. sequential request handling (Fig. 8 style).

Figure 8 shows that Mosaic Flow throughput comes from stacking many
same-shape subdomain solves into single fused solver calls.  This benchmark
lifts that comparison from the subdomain level to the *request* level using
the serving subsystem: a stream of BVP requests is served once with dynamic
batching disabled (batch size 1 — one predictor run per request), once with
full batching, and once with batching plus the LRU solution cache on a
duplicate-heavy stream.  Reported per mode: fused solver runs, subdomains
per fused call, wall time, and requests/second.

All traffic is generated through ``repro.utils`` seeding, so the streams are
identical across runs and modes.
"""

from __future__ import annotations

import time

import numpy as np

from _bench_utils import print_table
from repro.mosaic import SDNetSubdomainSolver
from repro.pde import HARMONIC_FUNCTIONS
from repro.serving import BatchPolicy, Server, SolutionCache, SolveRequest
from repro.utils import spawn_rngs

NUM_REQUESTS = 24
DUPLICATE_SHARE = 0.5
TOL = 1e-5
MAX_ITERATIONS = 60


def _request_stream(geometry, num_requests, duplicate_share, rng):
    """Deterministic request stream of harmonic-mix boundary loops."""

    grid = geometry.global_grid()
    names = sorted(HARMONIC_FUNCTIONS)
    loops = []
    for _ in range(num_requests):
        if loops and rng.random() < duplicate_share:
            loops.append(loops[int(rng.integers(len(loops)))])
        else:
            weights = rng.normal(size=len(names))
            loops.append(
                grid.boundary_from_function(
                    lambda x, y, w=weights: sum(
                        wi * HARMONIC_FUNCTIONS[name](x, y)
                        for wi, name in zip(w, names)
                    )
                )
            )
    return loops


class _CountingSolver(SDNetSubdomainSolver):
    """Counts solver calls and subdomain rows into a per-server tally."""

    def __init__(self, model, counts):
        super().__init__(model)
        self._counts = counts

    def predict(self, boundaries, points):
        self._counts["calls"] += 1
        self._counts["rows"] += len(boundaries)
        return super().predict(boundaries, points)


def _serve(geometry, loops, model, max_batch, cache):
    counts = {"calls": 0, "rows": 0}
    server = Server(
        solver_factory=lambda geo: _CountingSolver(model, counts),
        policy=BatchPolicy(max_batch_size=max_batch, max_wait_seconds=60.0),
        cache=cache,
    )
    tic = time.perf_counter()
    requests = [
        SolveRequest.create(geometry, loop, tol=TOL, max_iterations=MAX_ITERATIONS)
        for loop in loops
    ]
    ids = [server.submit(request) for request in requests]
    results = server.drain()
    elapsed = time.perf_counter() - tic
    assert len(results) == len(loops)
    return server, results, ids, elapsed, counts


def test_serving_batched_vs_sequential_throughput(benchmark, bench_trained_sdnet,
                                                  bench_small_geometry):
    geometry = bench_small_geometry
    stream_rng, _ = spawn_rngs(2024, 2)
    unique_loops = _request_stream(geometry, NUM_REQUESTS, 0.0, stream_rng)

    model = bench_trained_sdnet
    sequential, seq_results, seq_ids, t_sequential, seq_counts = _serve(
        geometry, unique_loops, model, max_batch=1, cache=None
    )
    batched, bat_results, bat_ids, t_batched, bat_counts = _serve(
        geometry, unique_loops, model, max_batch=NUM_REQUESTS, cache=None
    )

    # identical solutions either way: batching only reshapes solver calls
    for seq_id, bat_id in zip(seq_ids, bat_ids):
        np.testing.assert_allclose(
            seq_results[seq_id].solution, bat_results[bat_id].solution,
            rtol=1e-7, atol=1e-9,
        )

    # cache speedup on a duplicate-heavy stream
    duplicate_loops = _request_stream(
        geometry, NUM_REQUESTS, DUPLICATE_SHARE, spawn_rngs(7, 1)[0]
    )
    cached, _, _, t_cached, cached_counts = _serve(
        geometry, duplicate_loops, model,
        max_batch=NUM_REQUESTS, cache=SolutionCache(capacity=64),
    )
    _, _, _, t_uncached, _ = _serve(
        geometry, duplicate_loops, model,
        max_batch=NUM_REQUESTS, cache=None,
    )

    def subdomains_per_call(counts):
        return counts["rows"] / max(counts["calls"], 1)

    rows = [
        ["sequential", sequential.stats.fused_runs,
         f"{subdomains_per_call(seq_counts):.1f}",
         f"{t_sequential:.2f} s", f"{NUM_REQUESTS / t_sequential:.1f}", "1.0x"],
        ["batched", batched.stats.fused_runs,
         f"{subdomains_per_call(bat_counts):.1f}",
         f"{t_batched:.2f} s", f"{NUM_REQUESTS / t_batched:.1f}",
         f"{t_sequential / t_batched:.1f}x"],
        ["batched+cache*", cached.stats.fused_runs,
         f"{subdomains_per_call(cached_counts):.1f}",
         f"{t_cached:.2f} s", f"{NUM_REQUESTS / t_cached:.1f}",
         f"{t_uncached / t_cached:.1f}x vs uncached"],
    ]
    print_table(
        f"Serving throughput — {NUM_REQUESTS} requests "
        f"(*cache row uses a {DUPLICATE_SHARE:.0%}-duplicate stream)",
        ["mode", "solver runs", "subs/call", "time", "req/s", "speedup"],
        rows,
    )

    # The benchmarked kernel: serving the full unique stream, fully batched.
    benchmark.pedantic(
        lambda: _serve(geometry, unique_loops, model,
                       max_batch=NUM_REQUESTS, cache=None),
        rounds=1, iterations=1,
    )

    # Shape assertions (CPU timing is noisy; counts are exact):
    # (1) batching collapses one run per request into one run per stream,
    assert sequential.stats.fused_runs == NUM_REQUESTS
    assert batched.stats.fused_runs == 1
    assert subdomains_per_call(bat_counts) > subdomains_per_call(seq_counts)
    # (2) the fused mode is not meaningfully slower (measured ~5x faster;
    #     the loose bound keeps noisy shared CI runners from flaking),
    assert t_batched < t_sequential * 1.5
    # (3) caching skips a large share of the duplicate stream's solves.
    assert cached.cache.hit_rate + cached.stats.dedup_hits / NUM_REQUESTS > 0.2
    assert cached.stats.solved_requests < NUM_REQUESTS
    benchmark.extra_info["batched_speedup"] = t_sequential / t_batched
    benchmark.extra_info["cache_speedup"] = t_uncached / t_cached
