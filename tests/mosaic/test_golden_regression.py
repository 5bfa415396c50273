"""Golden regression tests: frozen reference outputs of MosaicFlowPredictor.

Small reference arrays (seeded via :mod:`repro.utils.rng`) are checked into
``tests/mosaic/golden/`` and compared **bitwise** against fresh runs, so
refactors of the geometry, predictor, assembly or serving layers cannot
silently drift the numerics.  Two cases are frozen: the classical 2x2-anchor
rectangular case and an L-shaped composite case covering the masked path.

Regenerate (after an *intentional* numerics change) with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest -rs tests/mosaic/test_golden_regression.py

The skip reason reports how far the new arrays moved from the old ones; a
change of summation order moves them by ~1e-15 relative, anything above
1e-12 is a change of the numerics and needs its own justification.

On mismatch the freshly computed arrays are dumped to
``test-artifacts/golden/`` so CI can upload them for triage.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro.domains import CompositeDomain, CompositeMosaicGeometry
from repro.mosaic import FDSubdomainSolver, MosaicFlowPredictor, MosaicGeometry
from repro.utils import seeded_rng

GOLDEN_DIR = Path(__file__).parent / "golden"
ARTIFACT_DIR = Path(__file__).parents[2] / "test-artifacts" / "golden"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"


def _seeded_loop(geometry, seed: int) -> np.ndarray:
    """Deterministic harmonic-mix boundary loop along the geometry's boundary."""

    rng = seeded_rng(seed)
    w = rng.normal(size=3)
    return geometry.boundary_from_function(
        lambda x, y: w[0] * (x * x - y * y) + w[1] * x * y + w[2] * (x - 2.0 * y)
    )


def _run_case(name: str):
    if name == "mfp_rect_2x2":
        geometry = MosaicGeometry(subdomain_points=9, subdomain_extent=0.5,
                                  steps_x=4, steps_y=4)
    elif name == "mfp_l_shape":
        geometry = CompositeMosaicGeometry(9, 0.5, CompositeDomain.l_shape(6, 6, 3, 3))
    else:  # pragma: no cover - defensive
        raise ValueError(name)
    loop = _seeded_loop(geometry, seed=2026)
    solver = FDSubdomainSolver(geometry.subdomain_grid(), method="direct")
    result = MosaicFlowPredictor(geometry, solver, batched=True).run(
        loop, max_iterations=200, tol=1e-7
    )
    return {
        "boundary_loop": loop,
        "solution": result.solution,
        "lattice_field": result.lattice_field,
        "iterations": np.int64(result.iterations),
        "converged": np.bool_(result.converged),
        "deltas": np.asarray(result.deltas),
    }


def _relative_drift(golden, actual) -> float:
    """Largest change of any array, relative to the old array's largest value."""

    drift = 0.0
    for key in ("solution", "lattice_field", "deltas"):
        old, new = np.asarray(golden[key]), np.asarray(actual[key])
        if old.shape != new.shape:  # deltas: one entry per iteration
            return float("inf")
        drift = max(drift, float(np.nanmax(np.abs(new - old)) / np.nanmax(np.abs(old))))
    return drift


@pytest.mark.parametrize("name", ["mfp_rect_2x2", "mfp_l_shape"])
def test_golden_outputs_are_bitwise_stable(name):
    path = GOLDEN_DIR / f"{name}.npz"
    actual = _run_case(name)

    if REGEN:
        drift = _relative_drift(np.load(path), actual) if path.exists() else float("nan")
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        np.savez(path, **actual)
        pytest.skip(f"regenerated {path}, max relative drift from the old arrays {drift:.1e}")

    assert path.exists(), (
        f"golden file {path} missing; regenerate with REPRO_REGEN_GOLDEN=1"
    )
    golden = np.load(path)
    try:
        assert int(golden["iterations"]) == int(actual["iterations"])
        assert bool(golden["converged"]) == bool(actual["converged"])
        for key in ("boundary_loop", "solution", "lattice_field", "deltas"):
            np.testing.assert_array_equal(
                actual[key], golden[key],
                err_msg=f"{name}.{key} drifted from the golden reference",
            )
    except AssertionError:
        # Dump the freshly computed arrays next to the repo root so CI can
        # upload them as failure artifacts for triage.
        ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
        np.savez(ARTIFACT_DIR / f"{name}.actual.npz", **actual)
        raise
