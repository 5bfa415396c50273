"""Serving tail behaviour: p99/p50 latency ratio and bytes-per-request.

A batching change can keep mean throughput while stretching the tail, and
a cache or payload change can balloon per-request bytes.  This run prints
both and writes them to ``test-artifacts/engine/serving_tail.json``:

* ``p99_over_p50`` — tail amplification of the served latency
  distribution, under a sanity ceiling (``MAX_P99_OVER_P50``).
* ``bytes_per_request`` — cumulative bytes charged to the
  ``repro.obs.memory`` accountant (plan buffers, solution cache,
  request store, anchor-row payloads, mega-batch scratch) divided by
  completed requests, broken down per owner in the printed table.

Neither is a trajectory gate any more: on 24 requests the p99 *is* the
median (the ratio read 1.008 for as long as it was recorded), and the byte
count moves with every deliberate accounting change.  Latency shape and
memory are gated by ``bench/`` (``latency_p95_ms``, ``peak_rss_mb`` over
20 s windows of hundreds of requests).

The run serves with the full production observability stack enabled —
memory accounting, flight recorder, SLO tracker — so the numbers are
the instrumented ones CI would see, and the retained flight traces are
written to ``test-artifacts/obs/`` for upload when the ceiling trips.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from _bench_utils import print_table
from repro.mosaic import MosaicGeometry, SDNetSubdomainSolver
from repro.obs import (
    FlightRecorder,
    disable_memory_accounting,
    enable_memory_accounting,
)
from repro.pde import HARMONIC_FUNCTIONS
from repro.serving import Server, SolveRequest
from repro.utils import seeded_rng

from conftest import BENCH_SUBDOMAIN_EXTENT, BENCH_SUBDOMAIN_POINTS

ENGINE_ARTIFACT_DIR = Path(__file__).parents[1] / "test-artifacts" / "engine"
OBS_ARTIFACT_DIR = Path(__file__).parents[1] / "test-artifacts" / "obs"

NUM_REQUESTS = 24
TOL = 1e-6
MAX_ITERATIONS = 40
#: sanity ceiling — a p99 this far above the median means a scheduling bug,
#: not noise
MAX_P99_OVER_P50 = 50.0


def _stream(count, seed):
    geometry = MosaicGeometry(
        BENCH_SUBDOMAIN_POINTS, BENCH_SUBDOMAIN_EXTENT, steps_x=4, steps_y=4
    )
    names = sorted(HARMONIC_FUNCTIONS)
    rng = seeded_rng(seed)
    stream = []
    for _ in range(count):
        weights = rng.normal(size=len(names))
        stream.append((geometry, geometry.boundary_from_function(
            lambda x, y, w=weights: sum(
                wi * HARMONIC_FUNCTIONS[name](x, y)
                for wi, name in zip(w, names)
            )
        )))
    return stream


def _serve(stream, model, flight=None):
    server = Server(
        solver_factory=lambda geometry: SDNetSubdomainSolver(model),
        flight=flight,
    )
    tic = time.perf_counter()
    for geometry, loop in stream:
        server.submit(SolveRequest.create(
            geometry, loop, tol=TOL, max_iterations=MAX_ITERATIONS
        ))
    server.drain()
    elapsed = time.perf_counter() - tic
    return server, elapsed


def test_serving_tail_and_bytes_per_request(benchmark, bench_trained_sdnet):
    stream = _stream(NUM_REQUESTS, seed=2026)

    # Warm pass: lazy solver construction and engine plan compilation would
    # otherwise dominate the first requests' latencies and poison the tail.
    _serve(stream, bench_trained_sdnet)

    # Measured pass with the production observability stack enabled.  The
    # flight recorder's rolling-median threshold guarantees some retained
    # tail even on a quiet run, exercising the dump-on-failure artifact.
    accountant = enable_memory_accounting()
    flight = FlightRecorder(min_samples=8, latency_quantile=75.0)
    try:
        ratios = []
        server = None
        for _ in range(3):
            accountant.clear()
            server, _ = _serve(stream, bench_trained_sdnet, flight=flight)
            p50 = server.stats.latency_percentile(50.0)
            p99 = server.stats.latency_percentile(99.0)
            assert p50 > 0.0
            ratios.append(p99 / p50)
        # Best-of-3: scheduling noise only ever inflates the tail, so the
        # minimum is the most reproducible machine-independent estimate.
        p99_over_p50 = min(ratios)
        health = server.health()
    finally:
        disable_memory_accounting()

    bytes_per_request = health["bytes_per_request"]
    assert bytes_per_request > 0.0
    assert health["status"] in ("ok", "burning")
    assert flight.summary()["retained"] >= 1, (
        "rolling-quantile tail sampling retained nothing across "
        f"{3 * NUM_REQUESTS} requests"
    )

    OBS_ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    flight.write_chrome_trace(OBS_ARTIFACT_DIR / "serving_flight.json")

    payload = {
        "p99_over_p50": p99_over_p50,
        "p99_over_p50_runs": ratios,
        "bytes_per_request": bytes_per_request,
        "requests": NUM_REQUESTS,
        "memory_owners": health["memory"]["owners"],
        "flight_retained": flight.summary()["retained"],
    }
    ENGINE_ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    with open(ENGINE_ARTIFACT_DIR / "serving_tail.json", "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

    owners = health["memory"]["owners"]
    rows = [
        [owner, f"{stats['allocated_bytes'] / NUM_REQUESTS:.0f}",
         f"{stats['live_bytes']}"]
        for owner, stats in sorted(owners.items())
    ]
    rows.append(["total / request", f"{bytes_per_request:.0f}", "-"])
    print_table(
        f"Serving tail — {NUM_REQUESTS} requests, "
        f"p99/p50 = {p99_over_p50:.2f} (best of 3)",
        ["owner", "bytes/request", "live bytes"],
        rows,
    )

    benchmark.extra_info.update({
        "p99_over_p50": p99_over_p50,
        "bytes_per_request": bytes_per_request,
    })
    benchmark.pedantic(
        lambda: _serve(stream, bench_trained_sdnet),
        rounds=1, iterations=1,
    )

    assert p99_over_p50 >= 1.0
    assert p99_over_p50 < MAX_P99_OVER_P50, (
        f"p99/p50 = {p99_over_p50:.1f} — the tail is pathological, not noisy"
    )
