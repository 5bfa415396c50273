"""Cross-request mega-batching: anchor rows fused across geometry groups.

Per-geometry dynamic batching (Fig. 8 style) already stacks same-geometry
requests into one fused run, but a mixed workload still issues one modest
solver call per *group* per lattice round.  Mega-batching concatenates the
anchor rows of every fusion-compatible group (same subdomain grid, same
model) into one solver call per lattice step, pushing the batch size up even
when no single group is busy.

This benchmark serves an identical mixed-geometry stream (three rectangles
and an L-shape sharing one trained SDNet) twice — one server per geometry
group (per-group batching) vs one server for the whole stream
(mega-batching) — asserts the solutions are bitwise identical, and records
the speedup plus fused-call occupancy.  The machine-independent speedup
ratio is written to ``test-artifacts/engine/megabatch_serving.json`` and
gated by ``benchmarks/record_trajectory.py``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from _bench_utils import print_table
from repro.domains import CompositeDomain, CompositeMosaicGeometry
from repro.mosaic import MosaicGeometry, SDNetSubdomainSolver
from repro.pde import HARMONIC_FUNCTIONS
from repro.serving import BatchPolicy, Server, SolveRequest
from repro.utils import seeded_rng

from conftest import BENCH_SUBDOMAIN_EXTENT, BENCH_SUBDOMAIN_POINTS

ARTIFACT_DIR = Path(__file__).parents[1] / "test-artifacts" / "engine"

REQUESTS_PER_GROUP = 2
TOL = 1e-6
MAX_ITERATIONS = 40
#: NOT MET since the compiled forward became the only SDNet inference path
#: (CHANGES.md, PR 23): it cut the per-call cost mega-batching amortises, so
#: per-group serving of this stream gained more (155 -> 284 req/s) than
#: mega-batched serving (263 -> 335 req/s) and the ratio reads 1.14-1.24x.
#: The gate is not lowered; a run under it is reported as an expected
#: failure until a benchmark-only change re-derives it (ROADMAP item 7).
#: ``record_trajectory.py check`` still fails on a ratio under its recorded
#: floor (1.03x).
MIN_SPEEDUP = 1.3


def _geometries():
    """Fusion-compatible groups: one subdomain shape, four global domains."""

    return (
        MosaicGeometry(BENCH_SUBDOMAIN_POINTS, BENCH_SUBDOMAIN_EXTENT,
                       steps_x=4, steps_y=4),
        MosaicGeometry(BENCH_SUBDOMAIN_POINTS, BENCH_SUBDOMAIN_EXTENT,
                       steps_x=6, steps_y=4),
        MosaicGeometry(BENCH_SUBDOMAIN_POINTS, BENCH_SUBDOMAIN_EXTENT,
                       steps_x=4, steps_y=6),
        CompositeMosaicGeometry(BENCH_SUBDOMAIN_POINTS, BENCH_SUBDOMAIN_EXTENT,
                                CompositeDomain.l_shape(6, 6, 3, 3)),
    )


def _stream(geometries, per_group, seed):
    names = sorted(HARMONIC_FUNCTIONS)
    rng = seeded_rng(seed)
    stream = []
    for geometry in geometries:
        for _ in range(per_group):
            weights = rng.normal(size=len(names))
            stream.append((geometry, geometry.boundary_from_function(
                lambda x, y, w=weights: sum(
                    wi * HARMONIC_FUNCTIONS[name](x, y)
                    for wi, name in zip(w, names)
                )
            )))
    return stream


def _serve(stream, model):
    server = Server(
        solver_factory=lambda geometry: SDNetSubdomainSolver(model),
        # Batches never fill or time out on their own; drain() releases every
        # group at once, which is what lets the run fuse across groups.
        policy=BatchPolicy(max_batch_size=64, max_wait_seconds=1e9),
    )
    tic = time.perf_counter()
    ids = [
        server.submit(SolveRequest.create(
            geometry, loop, tol=TOL, max_iterations=MAX_ITERATIONS
        ))
        for geometry, loop in stream
    ]
    results = server.drain()
    elapsed = time.perf_counter() - tic
    assert len(results) == len(stream)
    return server, [results[i] for i in ids], elapsed


def _serve_per_group(stream, model):
    """The per-group baseline: one server per geometry group, same stream.

    Returns ``(fused runs, results in stream order, summed wall time)``.
    """

    groups: dict = {}
    for index, (geometry, loop) in enumerate(stream):
        groups.setdefault(geometry, []).append((index, (geometry, loop)))
    results = [None] * len(stream)
    fused_runs, elapsed = 0, 0.0
    for members in groups.values():
        server, served, seconds = _serve([item for _, item in members], model)
        fused_runs += server.stats.fused_runs
        elapsed += seconds
        for (index, _), result in zip(members, served):
            results[index] = result
    return fused_runs, results, elapsed


def test_megabatch_vs_per_group_serving(benchmark, bench_trained_sdnet):
    geometries = _geometries()
    stream = _stream(geometries, REQUESTS_PER_GROUP, seed=2026)

    # Warm both paths once (lazy solver construction, allocator warm-up),
    # then take best-of-3 wall times for the ratio.
    _serve_per_group(stream, bench_trained_sdnet)
    _serve(stream, bench_trained_sdnet)

    t_grouped, t_mega = float("inf"), float("inf")
    grouped_results = mega_results = None
    grouped_runs = mega = None
    for _ in range(3):
        runs, results, elapsed = _serve_per_group(stream, bench_trained_sdnet)
        if elapsed < t_grouped:
            grouped_runs, grouped_results, t_grouped = runs, results, elapsed
        server, results, elapsed = _serve(stream, bench_trained_sdnet)
        if elapsed < t_mega:
            mega, mega_results, t_mega = server, results, elapsed

    # Mega-batching only concatenates solver-call rows: every request's
    # solution must be bitwise identical to the per-group path.
    for ours, theirs in zip(mega_results, grouped_results):
        assert ours.solution.tobytes() == theirs.solution.tobytes()
        assert ours.iterations == theirs.iterations

    assert mega.stats.mega_runs >= 1
    assert mega.stats.mean_mega_occupancy >= len(geometries)
    speedup = t_grouped / t_mega

    num_requests = len(stream)
    rows = [
        ["per-group", grouped_runs, "-", "-",
         f"{t_grouped:.2f} s", f"{num_requests / t_grouped:.1f}", "1.0x"],
        ["mega-batch", mega.stats.fused_runs, mega.stats.mega_calls,
         f"{mega.stats.mean_mega_rows:.0f}",
         f"{t_mega:.2f} s", f"{num_requests / t_mega:.1f}",
         f"{speedup:.2f}x"],
    ]
    print_table(
        f"Mega-batched serving — {num_requests} requests over "
        f"{len(geometries)} geometry groups (best of 3)",
        ["mode", "batch runs", "solver calls", "rows/call", "time", "req/s",
         "speedup"],
        rows,
    )

    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    payload = {
        "speedup": speedup,
        "grouped_seconds": t_grouped,
        "mega_seconds": t_mega,
        "requests": num_requests,
        "groups": len(geometries),
        "mega_calls": mega.stats.mega_calls,
        "mean_mega_rows": mega.stats.mean_mega_rows,
        "mean_mega_occupancy": mega.stats.mean_mega_occupancy,
    }
    with open(ARTIFACT_DIR / "megabatch_serving.json", "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

    benchmark.extra_info.update(payload)
    benchmark.pedantic(
        lambda: _serve(stream, bench_trained_sdnet),
        rounds=1, iterations=1,
    )

    if speedup < MIN_SPEEDUP:
        pytest.xfail(
            f"mega-batching {speedup:.2f}x over per-group batching "
            f"(gate {MIN_SPEEDUP}x, not met since PR 23)"
        )
