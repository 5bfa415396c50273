"""Versioned benchmark trajectory: record and gate performance over time.

The CI engine-smoke job writes timing JSON to ``test-artifacts/engine/``
on every run, but those artifacts are ephemeral.  This script promotes a
curated set of *machine-independent* metrics (speedup ratios, not absolute
seconds) into versioned trajectory files committed to the repo:

    benchmarks/baselines/BENCH_<metric>.json

Each file holds the full history of one metric::

    {
      "metric": "engine_forward_serving_geomean_speedup",
      "unit": "x",
      "higher_is_better": true,
      "tolerance": 0.20,
      "trajectory": [
        {"value": 3.105, "commit": "17161f1", "recorded_at": "...",
         "config": {"source": "engine_forward.json", ...}},
        ...
      ]
    }

Usage::

    # append the current test-artifacts values to every trajectory
    python benchmarks/record_trajectory.py record

    # CI gate: compare fresh artifacts against the committed baseline,
    # exit non-zero when any tracked metric regresses beyond tolerance
    python benchmarks/record_trajectory.py check

Only ratio metrics are tracked so the gate is meaningful across runner
hardware generations.  Ratios measured on the same run still cancel the
machine but not the noise, so end-to-end serving cases carry a looser
tolerance than the best-of-N microbenchmark geomeans.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).parents[1]
ARTIFACT_DIR = REPO_ROOT / "test-artifacts" / "engine"
BASELINE_DIR = REPO_ROOT / "benchmarks" / "baselines"

#: default relative regression tolerance (ISSUE acceptance: fail on >20%)
DEFAULT_TOLERANCE = 0.20
#: end-to-end serving throughput ratios are noisy (threads, batching
#: timers); a tighter gate would flake without catching real regressions
SERVING_TOLERANCE = 0.35


@dataclass(frozen=True)
class TrackedMetric:
    """One gated metric: where it comes from and how much it may move."""

    name: str
    artifact: str               # JSON file under test-artifacts/engine/
    extract: callable           # payload dict -> float
    unit: str = "x"
    higher_is_better: bool = True
    tolerance: float = DEFAULT_TOLERANCE

    def read_current(self) -> float | None:
        path = ARTIFACT_DIR / self.artifact
        if not path.exists():
            return None
        with open(path) as handle:
            return float(self.extract(json.load(handle)))

    @property
    def baseline_path(self) -> Path:
        return BASELINE_DIR / f"BENCH_{self.name}.json"


TRACKED_METRICS = [
    TrackedMetric(
        name="engine_forward_serving_geomean_speedup",
        artifact="engine_forward.json",
        extract=lambda payload: payload["serving_geomean_speedup"],
    ),
    TrackedMetric(
        name="taylor_physics_loss_geomean_speedup",
        artifact="taylor_engine.json",
        extract=lambda payload: payload["geomean_speedup"],
    ),
    TrackedMetric(
        name="serving_megabatch_speedup",
        artifact="megabatch_serving.json",
        extract=lambda payload: payload["speedup"],
        tolerance=SERVING_TOLERANCE,
    ),
]


# -- trajectory files ----------------------------------------------------------------


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def load_trajectory(metric: TrackedMetric) -> dict:
    if metric.baseline_path.exists():
        with open(metric.baseline_path) as handle:
            return json.load(handle)
    return {
        "metric": metric.name,
        "unit": metric.unit,
        "higher_is_better": metric.higher_is_better,
        "tolerance": metric.tolerance,
        "trajectory": [],
    }


def save_trajectory(metric: TrackedMetric, data: dict) -> None:
    BASELINE_DIR.mkdir(parents=True, exist_ok=True)
    with open(metric.baseline_path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def baseline_value(data: dict) -> float | None:
    trajectory = data.get("trajectory", [])
    if not trajectory:
        return None
    return float(trajectory[-1]["value"])


# -- commands ------------------------------------------------------------------------


def record(commit: str | None = None, note: str | None = None) -> int:
    """Append the current artifact values to every trajectory file."""

    commit = commit or _git_commit()
    recorded_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
    wrote = 0
    for metric in TRACKED_METRICS:
        value = metric.read_current()
        if value is None:
            print(f"[skip]   {metric.name}: no {metric.artifact} in "
                  f"{ARTIFACT_DIR} (run the engine benchmarks first)")
            continue
        data = load_trajectory(metric)
        entry = {
            "value": value,
            "commit": commit,
            "recorded_at": recorded_at,
            "config": {"source": metric.artifact},
        }
        if note:
            entry["config"]["note"] = note
        data["trajectory"].append(entry)
        save_trajectory(metric, data)
        path = metric.baseline_path
        if path.is_relative_to(REPO_ROOT):
            path = path.relative_to(REPO_ROOT)
        print(f"[record] {metric.name} = {value:.4f}{metric.unit} "
              f"@ {commit} -> {path}")
        wrote += 1
    if wrote == 0:
        print("no artifacts found; nothing recorded", file=sys.stderr)
        return 1
    return 0


def check(tolerance_override: float | None = None) -> int:
    """Gate: fail when any tracked metric regresses beyond its tolerance."""

    failures = []
    checked = 0
    for metric in TRACKED_METRICS:
        current = metric.read_current()
        data = load_trajectory(metric)
        baseline = baseline_value(data)
        tolerance = (
            tolerance_override
            if tolerance_override is not None
            else float(data.get("tolerance", metric.tolerance))
        )
        if baseline is None:
            print(f"[skip] {metric.name}: no committed baseline "
                  f"(run 'record' and commit {metric.baseline_path.name})")
            continue
        if current is None:
            failures.append(
                f"{metric.name}: benchmark artifact {metric.artifact} missing "
                f"from {ARTIFACT_DIR} — did the benchmark run?"
            )
            continue
        checked += 1
        higher_is_better = bool(data.get("higher_is_better", metric.higher_is_better))
        if higher_is_better:
            change = (baseline - current) / baseline      # >0 means regression
        else:
            change = (current - baseline) / baseline
        status = "FAIL" if change > tolerance else "ok"
        direction = "regression" if change > 0 else "improvement"
        print(f"[{status:4s}] {metric.name}: current {current:.4f}{metric.unit} "
              f"vs baseline {baseline:.4f}{metric.unit} "
              f"({abs(change) * 100:.1f}% {direction}, tolerance "
              f"{tolerance * 100:.0f}%)")
        if change > tolerance:
            failures.append(
                f"{metric.name}: {current:.4f}{metric.unit} regressed "
                f"{change * 100:.1f}% from baseline {baseline:.4f}{metric.unit} "
                f"(tolerance {tolerance * 100:.0f}%)"
            )
    if failures:
        print("\nbenchmark trajectory gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    if checked == 0:
        print("no metrics checked (no baselines committed yet)", file=sys.stderr)
        return 1
    print(f"\nbenchmark trajectory gate passed ({checked} metrics)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_record = sub.add_parser("record", help="append current values to trajectories")
    p_record.add_argument("--commit", help="override the recorded commit id")
    p_record.add_argument("--note", help="free-form note stored in the entry config")

    p_check = sub.add_parser("check", help="fail on regression vs committed baseline")
    p_check.add_argument(
        "--tolerance",
        type=float,
        help="override every metric's relative tolerance (e.g. 0.20)",
    )

    args = parser.parse_args(argv)
    if args.command == "record":
        return record(commit=args.commit, note=args.note)
    return check(tolerance_override=args.tolerance)


if __name__ == "__main__":
    raise SystemExit(main())
