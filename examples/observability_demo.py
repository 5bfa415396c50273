"""Observability demo: trace, meter and profile a served workload end to end.

The demo drives ``repro.obs`` across every layer it instruments:

1. enable tracing, stand up a :class:`repro.serving.Server` and submit a
   stream of boundary value problems (with deliberate repeats so the cache
   participates),
2. print the hierarchical span tree of the served requests — queue wait,
   batch assembly, fused solve, postprocess — plus a
   Chrome trace file loadable in ``chrome://tracing`` / Perfetto,
3. print the unified metrics snapshot (``Server.stats()``'s counters and
   bounded histograms) in both JSON and Prometheus text exposition,
4. compile the model with ``compile_module(..., profile=True)`` and print
   its top-kernels report: where a compiled forward spends its time, per
   numpy kernel, with call counts and bytes moved,
5. print the tail-sampled flight records (the requests that finished above
   the rolling latency quantile, with their span trees and attribution),
   the per-owner memory accounting, and the ``Server.health()`` snapshot
   with its multi-window SLO burn rates.

Run with::

    python examples/observability_demo.py [--requests 24] [--seed 0]
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.data import generate_dataset
from repro.engine import compile_module
from repro.models import SDNet
from repro.mosaic import MosaicGeometry, SDNetSubdomainSolver
from repro.obs import (
    FlightRecorder,
    disable_memory_accounting,
    disable_tracing,
    enable_memory_accounting,
    enable_tracing,
    to_json,
    to_prometheus,
)
from repro.serving import Server, SolveRequest
from repro.training import Trainer, TrainingConfig
from repro.utils import seeded_rng

SUBDOMAIN_POINTS = 9
SUBDOMAIN_EXTENT = 0.5


def train_small_sdnet(seed: int) -> SDNet:
    """A briefly trained SDNet (the demo is about observing, not accuracy)."""

    dataset = generate_dataset(
        num_samples=32, resolution=SUBDOMAIN_POINTS,
        extent=(SUBDOMAIN_EXTENT, SUBDOMAIN_EXTENT), seed=seed,
    )
    train, val = dataset.split(validation_fraction=0.125, seed=seed)
    model = SDNet(
        boundary_size=dataset.grid.boundary_size, hidden_size=24,
        trunk_layers=2, embedding_channels=(2,), rng=seed,
    )
    config = TrainingConfig(
        epochs=2, batch_size=8, data_points_per_domain=32,
        collocation_points_per_domain=16, max_lr=3e-3, seed=seed,
    )
    Trainer(model, config, train, val).fit()
    return model


def request_stream(geometry, count: int, seed: int):
    """Random harmonic-mix BVPs with ~25% repeated queries."""

    rng = seeded_rng(seed)
    loops = []
    for index in range(count):
        if loops and rng.uniform() < 0.25:
            loops.append(loops[rng.integers(0, len(loops))])
            continue
        w = rng.normal(size=3)
        loops.append(
            geometry.boundary_from_function(
                lambda x, y: w[0] * (x * x - y * y) + w[1] * x * y + w[2] * (x - y)
            )
        )
    return loops


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=24)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--trace-out", default="observability_trace.json",
        help="Chrome trace-event output file (open in chrome://tracing)",
    )
    args = parser.parse_args()

    print("training a small SDNet (a few seconds) ...")
    model = train_small_sdnet(args.seed)
    geometry = MosaicGeometry(
        subdomain_points=SUBDOMAIN_POINTS, subdomain_extent=SUBDOMAIN_EXTENT,
        steps_x=4, steps_y=4,
    )
    loops = request_stream(geometry, args.requests, args.seed)

    # 1. tracing + memory accounting on; the flight recorder tail-samples
    #    above the rolling median so a quiet demo run still retains a few
    #    "slow" traces to show.
    tracer = enable_tracing()
    accountant = enable_memory_accounting()
    server = Server(
        solver_factory=lambda geom: SDNetSubdomainSolver(model),
        flight=FlightRecorder(min_samples=8, latency_quantile=50.0),
    )
    for loop in loops:
        server.submit(SolveRequest.create(geometry, loop, tol=1e-6, max_iterations=60))
    server.drain()

    # 2. the span trees (most recent 8 roots keeps the terminal readable).
    print("\n=== span tree (last 8 roots) ===")
    print(tracer.span_tree(max_roots=8))
    tracer.write_chrome_trace(args.trace_out)
    print(f"\nfull Chrome trace ({tracer.span_count()} spans) -> {args.trace_out}")

    # 3. unified metrics: one snapshot, two renderings.
    stats = server.stats.as_dict()
    print("\n=== metrics snapshot (JSON) ===")
    print(to_json(stats["obs"]))
    print("\n=== metrics (Prometheus text exposition) ===")
    print(to_prometheus(stats["obs"]), end="")

    # 4. where a compiled forward spends its time: the model compiled with a
    #    profiler, on a batch of boundary loops and subdomain query points.
    rng = seeded_rng(args.seed)
    program = compile_module(model, profile=True)
    program.predict(
        rng.normal(size=(32, model.boundary_size)),
        rng.uniform(0.0, SUBDOMAIN_EXTENT, size=(32, 16, 2)),
    )
    print("\n=== per-kernel profile ===")
    print(program.kernel_report())

    # 5. the tail: which requests were slow, why, and what they were doing.
    print("\n=== flight recorder (tail-sampled slow requests) ===")
    summary = server.flight.summary()
    threshold = summary["latency_threshold_seconds"]
    threshold = "n/a" if threshold is None else f"{threshold:.4f}s"
    print(f"retained {summary['retained']} of {args.requests} requests "
          f"(threshold {threshold}, by reason {summary['by_reason']})")
    for record in server.flight.records()[-2:]:
        print(f"\n--- {record.request_id} [{record.reason}] "
              f"{record.latency_seconds * 1e3:.1f}ms "
              f"occupancy={record.attrs.get('mega_occupancy')} ---")
        print(record.span_tree())

    print("\n=== memory accounting (bytes by owner) ===")
    print(accountant.report())

    print("\n=== Server.health() ===")
    health = server.health()
    print(f"status: {health['status']}  alerts: {health['alerts']}")
    print(f"bytes/request: {health['bytes_per_request']:.0f}")
    for objective, state in health["slo"].items():
        windows = ", ".join(
            f"{name}: attainment={w['attainment']} burn={w['burn_rate']}"
            for name, w in state["windows"].items()
        )
        print(f"  {objective} (target {state['target']}): {windows}")

    print("\n=== serving report ===")
    print(server.stats.report())
    disable_tracing()
    disable_memory_accounting()


if __name__ == "__main__":
    main()
