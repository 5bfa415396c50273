"""Compare two ``run.py --out`` files under the benchmark's own bounds.

    python bench/compare.py A.json B.json

One row per (end-to-end metric, workload): A's value (the base), B's value,
the ratio B/A with its base, and a verdict.

* ``improved`` / ``regressed``: B's median is better / worse than A's by more
  than the metric's bound.
* ``unchanged``: within the bound.
* ``unresolved``: the pair cannot be judged: the metric is missing on one
  side, a run was flagged INVALID, or (with ``run.py --repeat 4`` or more) the
  spread between A's own runs is wider than the bound and the two sides' runs
  overlap.

Exit code 1 on any ``regressed`` row or a higher ``failed_share``.
"""

from __future__ import annotations

import json
import statistics
import sys

import metrics


def _values(record: dict, workload: str, name: str) -> list[float]:
    return [
        run[workload]["end_to_end"][name] for run in record["runs"]
        if workload in run and name in run[workload]["end_to_end"]
    ]


def _invalid(record: dict, workload: str) -> bool:
    return any(
        note.startswith("INVALID")
        for run in record["runs"] if workload in run
        for note in run[workload]["notes"]
    )


def verdict(metric: dict, a: list[float], b: list[float]) -> str:
    """Judge B against base A for one metric (lists hold one value per run)."""

    if not a or not b:
        return "unresolved"
    sign = 1.0 if metric["better"] == "lower" else -1.0
    base = statistics.median(a)
    worse_by = sign * (statistics.median(b) - base)           # > 0: B is worse
    bound = metric["bound"] * (abs(base) if metric["kind"] == "rel" else 1.0)
    if len(a) >= 4:
        quartiles = statistics.quantiles(a, n=4)
        if quartiles[2] - quartiles[0] > bound:
            # A's own runs disagree by more than the bound: only a clean
            # separation of every run decides.
            if all(sign * (y - x) > 0 for x in a for y in b):
                return "regressed"
            if all(sign * (y - x) < 0 for x in a for y in b):
                return "improved"
            return "unresolved"
    if worse_by > bound:
        return "regressed"
    if worse_by < -bound:
        return "improved"
    return "unchanged"


def compare(a: dict, b: dict) -> tuple[list[dict], bool]:
    rows = []
    bad = False
    for metric in metrics.END_TO_END:
        for workload in metric["applies"]:
            va, vb = _values(a, workload, metric["name"]), _values(b, workload, metric["name"])
            if not va and not vb:
                continue
            result = verdict(metric, va, vb)
            if result != "unresolved" and (_invalid(a, workload) or _invalid(b, workload)):
                result = "unresolved"
            base = statistics.median(va) if va else None
            new = statistics.median(vb) if vb else None
            rows.append({
                "metric": metric["name"], "workload": workload, "unit": metric["unit"],
                "a": base, "b": new,
                "ratio": new / base if base and new is not None else None,
                "verdict": result,
            })
            bad |= result == "regressed"
            if metric["name"] == "failed_share" and base is not None and new is not None:
                bad |= new > base
    return rows, bad


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        a = json.load(handle)
    with open(argv[1]) as handle:
        b = json.load(handle)
    rows, bad = compare(a, b)
    print(f"A = {argv[0]} (seed {a['seed']}, {len(a['runs'])} run(s))   "
          f"B = {argv[1]} (seed {b['seed']}, {len(b['runs'])} run(s))")
    print(f"{'metric':<24s} {'workload':<20s} {'A':>14s} {'B':>14s} {'B/A':>22s}  verdict")
    for row in rows:
        fmt = lambda v: "-" if v is None else f"{v:.6g}"  # noqa: E731
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.4f} of {fmt(row['a'])}"
        print(f"{row['metric']:<24s} {row['workload']:<20s} {fmt(row['a']):>14s} "
              f"{fmt(row['b']):>14s} {ratio:>22s}  {row['verdict']}")
    counts = {}
    for row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    print("  ".join(f"{k}: {v}" for k, v in sorted(counts.items())))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
