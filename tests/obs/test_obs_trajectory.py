"""Benchmark trajectory recorder/gate (``benchmarks/record_trajectory.py``)."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).parents[2] / "benchmarks" / "record_trajectory.py"


@pytest.fixture()
def rt(tmp_path, monkeypatch):
    """The trajectory module, redirected at temp artifact/baseline dirs."""

    spec = importlib.util.spec_from_file_location("record_trajectory", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    # Register before exec: dataclass processing resolves the class's module
    # through sys.modules.
    monkeypatch.setitem(sys.modules, "record_trajectory", module)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "ARTIFACT_DIR", tmp_path / "artifacts")
    monkeypatch.setattr(module, "BASELINE_DIR", tmp_path / "baselines")
    return module


def _write_artifacts(rt, forward=3.0, taylor=2.2, megabatch=1.5):
    rt.ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    with open(rt.ARTIFACT_DIR / "engine_forward.json", "w") as h:
        json.dump({"serving_geomean_speedup": forward}, h)
    with open(rt.ARTIFACT_DIR / "megabatch_serving.json", "w") as h:
        json.dump({"speedup": megabatch}, h)
    with open(rt.ARTIFACT_DIR / "taylor_engine.json", "w") as h:
        json.dump({"geomean_speedup": taylor}, h)


class TestRecord:
    def test_record_creates_schema_complete_trajectories(self, rt):
        _write_artifacts(rt)
        assert rt.record(commit="abc1234", note="seed") == 0
        for metric in rt.TRACKED_METRICS:
            assert metric.baseline_path.exists()
            data = json.loads(metric.baseline_path.read_text())
            assert data["metric"] == metric.name
            assert data["unit"] == metric.unit
            assert data["higher_is_better"] is metric.higher_is_better
            assert data["tolerance"] == metric.tolerance
            (entry,) = data["trajectory"]
            assert entry["commit"] == "abc1234"
            assert entry["config"]["note"] == "seed"
            assert "recorded_at" in entry
        forward = json.loads(
            (rt.BASELINE_DIR / "BENCH_engine_forward_serving_geomean_speedup.json").read_text()
        )
        assert forward["trajectory"][0]["value"] == 3.0

    def test_record_appends(self, rt):
        _write_artifacts(rt, forward=3.0)
        rt.record(commit="aaa")
        _write_artifacts(rt, forward=3.5)
        rt.record(commit="bbb")
        data = rt.load_trajectory(rt.TRACKED_METRICS[0])
        assert [e["commit"] for e in data["trajectory"]] == ["aaa", "bbb"]
        assert rt.baseline_value(data) == 3.5

    def test_record_without_artifacts_fails(self, rt):
        assert rt.record() == 1


class TestCheck:
    def test_passes_at_baseline(self, rt):
        _write_artifacts(rt)
        rt.record(commit="seed")
        assert rt.check() == 0

    def test_improvement_passes(self, rt):
        _write_artifacts(rt)
        rt.record(commit="seed")
        _write_artifacts(rt, forward=4.5, taylor=3.0)
        assert rt.check() == 0

    def test_small_regression_within_tolerance_passes(self, rt):
        _write_artifacts(rt, forward=3.0)
        rt.record(commit="seed")
        _write_artifacts(rt, forward=3.0 * 0.85)  # 15% < 20% tolerance
        assert rt.check() == 0

    def test_large_regression_fails(self, rt):
        _write_artifacts(rt, forward=3.0)
        rt.record(commit="seed")
        _write_artifacts(rt, forward=3.0 * 0.75)  # 25% > 20% tolerance
        assert rt.check() == 1

    def test_serving_metrics_use_looser_tolerance(self, rt):
        _write_artifacts(rt, megabatch=1.5)
        rt.record(commit="seed")
        # 30% regression on the end-to-end serving ratio: within its 35%.
        _write_artifacts(rt, megabatch=1.5 * 0.7)
        assert rt.check() == 0
        # 40% is out.
        _write_artifacts(rt, megabatch=1.5 * 0.6)
        assert rt.check() == 1

    def test_lower_is_better_metrics_gate_on_growth(self, rt, monkeypatch):
        # No committed gate is lower-is-better today; the direction is part
        # of the trajectory file schema, so it stays covered.
        cost = rt.TrackedMetric(
            name="cost", artifact="engine_forward.json",
            extract=lambda payload: payload["serving_geomean_speedup"],
            higher_is_better=False, tolerance=0.25,
        )
        monkeypatch.setattr(rt, "TRACKED_METRICS", [cost])
        _write_artifacts(rt, forward=500.0)
        rt.record(commit="seed")
        # Shrinking is an improvement, never a failure.
        _write_artifacts(rt, forward=300.0)
        assert rt.check() == 0
        # Growth within the 25% tolerance passes; beyond it fails.
        _write_artifacts(rt, forward=500.0 * 1.2)
        assert rt.check() == 0
        _write_artifacts(rt, forward=500.0 * 1.3)
        assert rt.check() == 1

    def test_missing_artifact_after_baseline_fails(self, rt):
        _write_artifacts(rt)
        rt.record(commit="seed")
        (rt.ARTIFACT_DIR / "engine_forward.json").unlink()
        assert rt.check() == 1

    def test_no_baselines_fails(self, rt):
        _write_artifacts(rt)
        assert rt.check() == 1

    def test_tolerance_override(self, rt):
        _write_artifacts(rt, forward=3.0)
        rt.record(commit="seed")
        _write_artifacts(rt, forward=3.0 * 0.85)
        assert rt.check(tolerance_override=0.10) == 1
        assert rt.check(tolerance_override=0.50) == 0


class TestCli:
    def test_main_round_trip(self, rt):
        _write_artifacts(rt)
        assert rt.main(["record", "--commit", "cli1"]) == 0
        assert rt.main(["check"]) == 0
        assert rt.main(["check", "--tolerance", "0.01"]) == 0  # no change at all
