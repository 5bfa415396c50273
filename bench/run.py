"""Mosaic Flow benchmark: one command, six workloads, every metric by name.

    python bench/run.py --seed 0                      # all workloads, end-to-end metrics
    python bench/run.py --seed 0 --workload train_sdnet --traced --out run.json
    python bench/run.py --workload W --seed N --seconds S --trace 0|1   # driver form

Each workload runs in a fresh subprocess of this same file (``--child``).
End-to-end numbers come from an untraced child; ``--traced`` adds a second
child with ``repro.obs`` tracing on and timing subclasses injected, which
yields the per-layer metrics, the layer table and the span list.  The driver
form prints one JSON object as the last line of standard output.

Exit code: 0 when every operation succeeded and every output was correct.
"""

from __future__ import annotations

import time

_IMPORTED_AT = time.time()

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import metrics  # noqa: E402

#: set-up runs per untraced measurement (the workload child plus set-up-only
#: children); ``setup_s`` is their median
SETUP_RUNS = 3


# ---------------------------------------------------------------------------
# Child: one workload in this process
# ---------------------------------------------------------------------------


def child_main(args) -> int:
    import resource

    import workloads

    ctx = workloads.Context(
        seed=args.seed, seconds=args.seconds, traced=args.traced,
        setup_only=args.setup_only,
        spawned_at=args.spawned_at if args.spawned_at else _IMPORTED_AT,
    )
    try:
        outcome = workloads.WORKLOADS[args.child](ctx)
    except workloads.SetupDone:
        print(json.dumps({"setup_s": ctx.setup_s}))
        return 0
    outcome.end_to_end["setup_s"] = ctx.setup_s
    outcome.end_to_end["failed_share"] = outcome.failed / outcome.attempted
    if args.traced:
        import probes

        outcome.per_layer.update(probes.layer_probes())
        outcome.per_layer["obs.spans_recorded"] = len(ctx.spans)
        workloads.ARTIFACTS.mkdir(parents=True, exist_ok=True)
        with open(workloads.ARTIFACTS / f"{args.child}.trace.json", "w") as handle:
            json.dump({"workload": args.child, "seed": args.seed, "spans": ctx.spans}, handle)
    outcome.end_to_end["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps({
        "end_to_end": outcome.end_to_end,
        "per_layer": outcome.per_layer,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "notes": outcome.notes,
        "layer_table": outcome.layer_table,
    }))
    return 0


def spawn(workload: str, seed: int, seconds: float, traced: bool = False,
          setup_only: bool = False) -> dict:
    """Run one child to completion and return the object it printed."""

    command = [
        sys.executable, str(BENCH / "run.py"), "--child", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--spawned-at", repr(time.time()),
    ]
    if traced:
        command.append("--traced")
    if setup_only:
        command.append("--setup-only")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} child exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Parent: measure one workload
# ---------------------------------------------------------------------------


def measure_untraced(workload: str, seed: int, seconds: float) -> dict:
    """End-to-end metrics: one full child plus set-up-only repeats."""

    result = spawn(workload, seed, seconds)
    setups = [result["end_to_end"]["setup_s"]] + [
        spawn(workload, seed, seconds, setup_only=True)["setup_s"]
        for _ in range(SETUP_RUNS - 1)
    ]
    result["end_to_end"]["setup_s"] = statistics.median(setups)
    return result


def cost(end_to_end: dict, workload: str) -> float:
    """The number tracing overhead is read from: time per unit of work."""

    if workload == "serve_sdnet_open":  # throughput is the offered rate there
        return end_to_end["latency_p50_ms"]
    return 1.0 / end_to_end["throughput_per_s"]


def measure_traced(workload: str, seed: int, seconds: float, baseline: dict) -> dict:
    """Per-layer metrics from a traced child; overhead against ``baseline``."""

    result = spawn(workload, seed, seconds, traced=True)
    layers = {m["name"]: 0.0 for m in metrics.PER_LAYER}
    layers.update(result["per_layer"])
    e2e = result["end_to_end"]
    layers["obs.tracing_overhead_share"] = (
        cost(e2e, workload) / cost(baseline["end_to_end"], workload) - 1.0)
    layers["harness.failed_share"] = e2e["failed_share"]
    if workload in metrics.APPLIES["latency_p95_ms"]:
        layers["harness.latency_p95_ms"] = e2e["latency_p95_ms"]
    layers["harness.slo_miss_share"] = e2e.get("slo_miss_share", 0.0)
    layers["mosaic.scaling_efficiency_w2"] = e2e.get("scaling_efficiency_w2", 0.0)
    result["per_layer"] = layers
    return result


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def fingerprint() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_env": {
            name: os.environ.get(name) for name in
            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def print_metrics(title: str, values: dict) -> None:
    print(f"\n  {title}")
    for name, value in values.items():
        print(f"    {name:<44s} {value:>14.6g} {metrics.UNITS.get(name, '')}")


def print_layer_table(rows: list[dict]) -> None:
    print("\n  layer table (self time; share of window wall, can sum past 1 with workers)")
    print(f"    {'span':<34s} {'layer':<20s} {'count':>8s} {'busy_s':>10s} {'share':>8s}")
    for row in rows:
        print(f"    {row['span']:<34s} {row['layer']:<20s} {row['count']:>8d} "
              f"{row['busy_s']:>10.4f} {row['share']:>8.1%}")


def run_human(args) -> int:
    names = args.workload or metrics.ALL
    record = {"seed": args.seed, "seconds": args.seconds, "fingerprint": fingerprint(),
              "runs": []}
    print(f"machine: {json.dumps(record['fingerprint'])}")
    failed = False
    for repeat in range(args.repeat):
        results = {}
        for name in names:
            untraced = measure_untraced(name, args.seed, args.seconds)
            print(f"\n== {name} (seed {args.seed}, {args.seconds:g} s, run {repeat + 1}) ==")
            end_to_end = {k: v for k, v in untraced["end_to_end"].items()
                          if name in metrics.APPLIES[k]}
            print_metrics("end to end (untraced)", end_to_end)
            for note in untraced["notes"]:
                print(f"    note: {note}")
            entry = {"end_to_end": end_to_end, "notes": untraced["notes"],
                     "attempted": untraced["attempted"], "failed": untraced["failed"]}
            failed |= untraced["failed"] > 0
            if args.traced:
                traced = measure_traced(name, args.seed, args.seconds, untraced)
                used = {k: v for k, v in traced["per_layer"].items() if v}
                print_metrics("per layer (traced; layers the workload leaves idle omitted)", used)
                print_layer_table(traced["layer_table"])
                print(f"    spans: test-artifacts/bench/{name}.trace.json")
                entry["per_layer"] = traced["per_layer"]
                entry["layer_table"] = traced["layer_table"]
                failed |= traced["failed"] > 0
            results[name] = entry
        record["runs"].append(results)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=2)
    if failed:
        print("\nFAILED: some operations failed or some outputs were wrong", file=sys.stderr)
    return 1 if failed else 0


def run_driver(args) -> int:
    """The driver's form: one workload, one JSON object on the last line."""

    (name,) = args.workload
    if args.trace:
        # The untraced child that tracing overhead is read against and the
        # traced child share the window, so a traced run takes as long as an
        # untraced one; per-layer counts are those of half a window.
        baseline = spawn(name, args.seed, args.seconds / 2)
        result = measure_traced(name, args.seed, args.seconds / 2, baseline)
        values = result["per_layer"]
    else:
        result = measure_untraced(name, args.seed, args.seconds)
        values = {k: result["end_to_end"][k] for k in metrics.DRIVER_END_TO_END}
    for note in result["notes"]:
        print(f"note: {note}", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": metrics.UNITS[name]}
                    for name, value in values.items()},
    }))
    return 0 if result["failed"] == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append", choices=metrics.ALL,
                        help="run only this workload (repeatable)")
    parser.add_argument("--seconds", type=float, default=float(metrics.RUN_SECONDS),
                        help="length of each timed window")
    parser.add_argument("--traced", action="store_true",
                        help="also run each workload traced, for per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1,
                        help="repeat the whole set; compare.py then uses medians")
    parser.add_argument("--out", help="write every number, with seed and fingerprint")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver form: 0 end-to-end, 1 per-layer; prints one JSON line")
    parser.add_argument("--child", choices=metrics.ALL, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"bench/run.py: the program under test is missing: {ROOT / 'src' / 'repro'}")
    if args.child:
        return child_main(args)
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace needs exactly one --workload")
        return run_driver(args)
    return run_human(args)


if __name__ == "__main__":
    sys.exit(main())
