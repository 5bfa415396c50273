"""Engine speedup: eager vs compiled SDNet inference (tentpole acceptance).

Two measurements back the ``repro.engine`` acceptance criteria:

* ``test_sdnet_forward_speedup`` — the SDNet forward pass at serving batch
  sizes (the per-phase subdomain batches the Mosaic Flow iteration issues).
  The compiled path must be at least 2x faster (geometric mean over the
  serving sizes).  Larger fused batches are reported too: there the erf-GELU
  arithmetic — identical in both paths by the bitwise-parity contract —
  dominates and the dispatch advantage shrinks, which the JSON records.
* ``test_server_parity_with_eager_oracle`` — end-to-end ``Server.submit``
  over the two golden-case geometries (rect 2x2 and the L-shape composite)
  against the same server driving the eager oracle solver (the
  ``eager_sdnet_solver`` fixture; the library itself has one, compiled,
  inference path): results must be bitwise identical.  Both throughputs are
  recorded; their ratio is no gate — the oracle is test code.

Timing JSON is written to ``test-artifacts/engine/`` and uploaded by the CI
smoke job.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.domains import CompositeDomain, CompositeMosaicGeometry
from repro.engine import compile_module
from repro.mosaic import MosaicGeometry, SDNetSubdomainSolver
from repro.serving import Server, SolveRequest
from repro.utils import seeded_rng

from _bench_utils import print_table

ARTIFACT_DIR = Path(__file__).parents[1] / "test-artifacts" / "engine"

#: per-phase subdomain batches issued while serving the bench geometries
SERVING_BATCH_SIZES = (1, 4, 8)
#: larger fused batches (reported, not asserted: erf math dominates there)
FUSED_BATCH_SIZES = (16, 64)


def _time_call(fn, repeats: int = 30) -> float:
    """Best-of-``repeats`` wall time (robust to scheduler noise)."""

    fn()  # warm-up (plan build / autodiff caches)
    best = float("inf")
    for _ in range(repeats):
        tic = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - tic)
    return best


def _write_artifact(name: str, payload: dict) -> None:
    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    with open(ARTIFACT_DIR / name, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)


def test_sdnet_forward_speedup(bench_trained_sdnet):
    model = bench_trained_sdnet
    compiled = compile_module(model)
    rng = seeded_rng(2026)
    q = 15  # centre-line points of the 9-point subdomain

    rows, timings = [], {}
    for batch in SERVING_BATCH_SIZES + FUSED_BATCH_SIZES:
        g = rng.normal(size=(batch, model.boundary_size))
        x = rng.normal(size=(batch, q, 2))
        eager_s = _time_call(lambda: model.predict(g, x))
        compiled_s = _time_call(lambda: compiled.predict(g, x))
        speedup = eager_s / compiled_s
        timings[batch] = {
            "eager_seconds": eager_s,
            "compiled_seconds": compiled_s,
            "speedup": speedup,
        }
        rows.append(
            [batch, f"{eager_s * 1e6:.0f}us", f"{compiled_s * 1e6:.0f}us",
             f"{speedup:.2f}x"]
        )
    print_table(
        "Engine: eager vs compiled SDNet forward",
        ["batch", "eager", "compiled", "speedup"],
        rows,
    )

    serving_speedups = [timings[b]["speedup"] for b in SERVING_BATCH_SIZES]
    geomean = float(np.exp(np.mean(np.log(serving_speedups))))
    _write_artifact(
        "engine_forward.json",
        {
            "batch_timings": {str(k): v for k, v in timings.items()},
            "serving_batch_sizes": list(SERVING_BATCH_SIZES),
            "serving_geomean_speedup": geomean,
        },
    )
    assert geomean >= 2.0, (
        f"compiled SDNet forward is only {geomean:.2f}x faster than eager "
        f"at serving batch sizes {SERVING_BATCH_SIZES} (need >= 2x)"
    )


def _golden_geometries():
    return {
        "rect_2x2": MosaicGeometry(
            subdomain_points=9, subdomain_extent=0.5, steps_x=4, steps_y=4
        ),
        "l_shape": CompositeMosaicGeometry(
            9, 0.5, CompositeDomain.l_shape(6, 6, 3, 3)
        ),
    }


def _golden_loops(geometry, count: int):
    loops = []
    for seed in range(count):
        rng = seeded_rng(2026 + seed)
        w = rng.normal(size=3)
        loops.append(
            geometry.boundary_from_function(
                lambda x, y: w[0] * (x * x - y * y) + w[1] * x * y
                + w[2] * (x - 2.0 * y)
            )
        )
    return loops


def test_server_parity_with_eager_oracle(bench_trained_sdnet, eager_sdnet_solver):
    model = bench_trained_sdnet
    requests_per_case = 6
    solvers = {"eager": eager_sdnet_solver, "compiled": SDNetSubdomainSolver}

    report, rows = {}, []
    for name, geometry in _golden_geometries().items():
        loops = _golden_loops(geometry, requests_per_case)
        solutions, elapsed = {}, {}
        for mode, solver_class in solvers.items():
            server = Server(solver_factory=lambda geom: solver_class(model))
            tic = time.perf_counter()
            ids = [
                server.submit(
                    SolveRequest.create(geometry, loop, tol=1e-6, max_iterations=60)
                )
                for loop in loops
            ]
            results = server.drain()
            elapsed[mode] = time.perf_counter() - tic
            solutions[mode] = [results[i].solution for i in ids]

        for eager, compiled in zip(solutions["eager"], solutions["compiled"]):
            np.testing.assert_array_equal(
                eager, compiled,
                err_msg=f"served solution drifted from the eager oracle on {name}",
            )
        report[name] = {
            "requests": requests_per_case,
            "eager_oracle_seconds": elapsed["eager"],
            "compiled_seconds": elapsed["compiled"],
            "bitwise_identical": True,
        }
        rows.append(
            [name, f"{requests_per_case / elapsed['eager']:.2f} req/s",
             f"{requests_per_case / elapsed['compiled']:.2f} req/s", "yes"]
        )
    print_table(
        "Engine: Server.submit, eager oracle vs the compiled path",
        ["case", "eager oracle", "compiled", "bitwise"],
        rows,
    )
    _write_artifact("engine_serving.json", report)
