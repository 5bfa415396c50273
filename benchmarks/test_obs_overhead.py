"""Observability overhead: disabled instrumentation must cost <2% (satellite).

The ``repro.obs`` span sites are permanent — they sit on the serving request
path and inside the training step.  The contract that makes this acceptable
is that the *disabled* path of :func:`repro.obs.span` is near-free: one
module-global read and a shared no-op context manager.

Wall-clock A/B runs of "instrumented binary vs hypothetical uninstrumented
binary" cannot measure a sub-percent effect reliably on a shared CI runner,
so the bound is computed from first principles instead and each factor is
measured directly:

    overhead fraction = (spans per unit of work) x (disabled span() cost)
                        / (seconds per unit of work)

* the disabled per-call cost is timed over a large calibrated loop,
* the span count per request / per train step is *measured* (tracing is
  enabled and the recorded spans counted — no hand-maintained site list),
* the per-unit wall time is measured with tracing disabled, exactly as the
  production configuration runs.

The run also reports the cost of *enabled* tracing and per-kernel profiling
(informational), and writes a Chrome trace of the served workload to
``test-artifacts/obs/`` — the artifact CI uploads when the bench gate fails.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.mosaic import MosaicGeometry, SDNetSubdomainSolver
from repro.obs import (
    disable_memory_accounting,
    disable_tracing,
    enable_memory_accounting,
    enable_tracing,
    span,
)
from repro.obs import memory as obs_memory
from repro.serving import Server, SolveRequest
from repro.training import Trainer, TrainingConfig
from repro.utils import seeded_rng

from _bench_utils import print_table

ARTIFACT_DIR = Path(__file__).parents[1] / "test-artifacts" / "obs"

#: acceptance bound on disabled-instrumentation overhead (ISSUE: <2%)
MAX_DISABLED_OVERHEAD = 0.02


def _write_artifact(name: str, payload: dict) -> None:
    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    with open(ARTIFACT_DIR / name, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)


def _disabled_span_cost(calls: int = 200_000) -> float:
    """Seconds per disabled ``span()`` call, attrs included (the site shape)."""

    disable_tracing()
    start = time.perf_counter()
    for _ in range(calls):
        with span("bench.site", batch=8):
            pass
    return (time.perf_counter() - start) / calls


def _disabled_memory_cost(calls: int = 200_000) -> float:
    """Seconds per disabled ``obs_memory.add/sub`` call (the site shape)."""

    disable_memory_accounting()
    start = time.perf_counter()
    for _ in range(calls):
        obs_memory.add("bench.owner", 1024)
    return (time.perf_counter() - start) / calls


def _geometry():
    return MosaicGeometry(
        subdomain_points=9, subdomain_extent=0.5, steps_x=4, steps_y=4
    )


def _loops(geometry, count: int):
    loops = []
    for seed in range(count):
        rng = seeded_rng(31 + seed)
        w = rng.normal(size=3)
        loops.append(
            geometry.boundary_from_function(
                lambda x, y: w[0] * (x * x - y * y) + w[1] * x * y + w[2] * (x - y)
            )
        )
    return loops


def _serve(model, loops, geometry, tracing: bool):
    """Serve the workload; returns (elapsed seconds, span count)."""

    tracer = enable_tracing() if tracing else None
    if not tracing:
        disable_tracing()
    server = Server(solver_factory=lambda geom: SDNetSubdomainSolver(model))
    tic = time.perf_counter()
    for loop in loops:
        server.submit(SolveRequest.create(geometry, loop, tol=1e-6, max_iterations=40))
    server.drain()
    elapsed = time.perf_counter() - tic
    spans = tracer.span_count() if tracer else 0
    return elapsed, spans, tracer


def test_disabled_overhead_under_two_percent(bench_trained_sdnet, bench_dataset):
    model = bench_trained_sdnet
    geometry = _geometry()
    loops = _loops(geometry, 6)
    per_span = _disabled_span_cost()
    per_mem = _disabled_memory_cost()

    # -- serving hot path --------------------------------------------------------
    # Span sites fired per request is measured, not hand-counted: trace one
    # run of the identical workload and count what was recorded.  The memory
    # accountant's event counter measures its site count the same way.
    accountant = enable_memory_accounting()
    _, span_total, tracer = _serve(model, loops, geometry, tracing=True)
    mem_events_per_request = accountant.event_count() / len(loops)
    disable_memory_accounting()
    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.write_chrome_trace(ARTIFACT_DIR / "serving_trace.json")
    disable_tracing()
    spans_per_request = span_total / len(loops)

    serving_seconds, _, _ = _serve(model, loops, geometry, tracing=False)
    seconds_per_request = serving_seconds / len(loops)
    # The disabled paths of the flight recorder, request journal and worker
    # supervisor are each one attribute `is None` check per request — every
    # one strictly cheaper than a disabled span call; bound them by three
    # extra span-costs per request.
    serving_overhead = (
        spans_per_request * per_span
        + mem_events_per_request * per_mem
        + 3 * per_span
    ) / seconds_per_request

    # -- compiled training hot path ----------------------------------------------
    train, val = bench_dataset.split(validation_fraction=0.125, seed=0)
    config = TrainingConfig(
        epochs=1, batch_size=8, data_points_per_domain=32,
        collocation_points_per_domain=16, engine=True, seed=0,
    )
    trainer = Trainer(model, config, train, val)
    batch = next(iter(trainer._iterator(rank=0, world_size=1)))

    tracer = enable_tracing()
    trainer.train_step(batch)
    spans_per_step = tracer.span_count()
    disable_tracing()

    trainer.train_step(batch)  # warm (plans built, caches hot)
    accountant = enable_memory_accounting()
    trainer.train_step(batch)  # steady state: plan buffers already cached
    mem_events_per_step = accountant.event_count()
    disable_memory_accounting()
    repeats = 5
    tic = time.perf_counter()
    for _ in range(repeats):
        trainer.train_step(batch)
    seconds_per_step = (time.perf_counter() - tic) / repeats
    training_overhead = (
        spans_per_step * per_span + mem_events_per_step * per_mem
    ) / seconds_per_step

    payload = {
        "disabled_span_cost_seconds": per_span,
        "disabled_memory_cost_seconds": per_mem,
        "serving": {
            "spans_per_request": spans_per_request,
            "memory_events_per_request": mem_events_per_request,
            "seconds_per_request": seconds_per_request,
            "overhead_fraction": serving_overhead,
        },
        "training": {
            "spans_per_step": spans_per_step,
            "memory_events_per_step": mem_events_per_step,
            "seconds_per_step": seconds_per_step,
            "overhead_fraction": training_overhead,
        },
        "max_allowed_overhead": MAX_DISABLED_OVERHEAD,
    }
    _write_artifact("obs_overhead.json", payload)
    print_table(
        "Observability: disabled-instrumentation overhead",
        ["path", "spans/unit", "mem-events/unit", "unit time", "overhead"],
        [
            ["serving request", f"{spans_per_request:.1f}",
             f"{mem_events_per_request:.1f}",
             f"{seconds_per_request * 1e3:.1f}ms", f"{serving_overhead:.4%}"],
            ["train step (engine)", f"{spans_per_step}",
             f"{mem_events_per_step}",
             f"{seconds_per_step * 1e3:.1f}ms", f"{training_overhead:.4%}"],
            ["span() disabled", "-", "-", f"{per_span * 1e9:.0f}ns", "-"],
            ["memory add() disabled", "-", "-", f"{per_mem * 1e9:.0f}ns", "-"],
        ],
    )

    assert serving_overhead < MAX_DISABLED_OVERHEAD, (
        f"disabled obs instrumentation costs {serving_overhead:.3%} of a "
        f"serving request (must stay under {MAX_DISABLED_OVERHEAD:.0%})"
    )
    assert training_overhead < MAX_DISABLED_OVERHEAD, (
        f"disabled obs instrumentation costs {training_overhead:.3%} of a "
        f"compiled train step (must stay under {MAX_DISABLED_OVERHEAD:.0%})"
    )


def test_profiling_overhead_is_bounded_and_reported(bench_trained_sdnet):
    """Per-kernel profiling is opt-in; report its cost and sanity-bound it."""

    from repro.autodiff import Tensor
    from repro.engine import compile_module

    model = bench_trained_sdnet
    rng = seeded_rng(7)
    g = rng.normal(size=(8, model.boundary_size))
    x = rng.normal(size=(8, 15, 2))

    plain = compile_module(model)
    profiled = compile_module(model, profile=True)
    for compiled in (plain, profiled):  # build plans outside the timed loops
        compiled.predict(g, x)

    def best_of(fn, repeats=30):
        best = float("inf")
        for _ in range(repeats):
            tic = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - tic)
        return best

    plain_s = best_of(lambda: plain.predict(g, x))
    profiled_s = best_of(lambda: profiled.predict(g, x))
    ratio = profiled_s / plain_s
    _write_artifact(
        "profiling_overhead.json",
        {"plain_seconds": plain_s, "profiled_seconds": profiled_s, "ratio": ratio},
    )
    print_table(
        "Observability: per-kernel profiling cost (opt-in path)",
        ["mode", "seconds", "ratio"],
        [
            ["compiled", f"{plain_s * 1e6:.0f}us", "1.00x"],
            ["compiled+profile", f"{profiled_s * 1e6:.0f}us", f"{ratio:.2f}x"],
        ],
    )
    # Opt-in profiling pays one clock pair per kernel step; it must never be
    # catastrophic (that would signal accidental re-tracing or allocation).
    assert ratio < 3.0, f"profiled execution is {ratio:.1f}x compiled"
