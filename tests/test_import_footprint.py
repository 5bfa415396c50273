"""Start-up pays only for what a process runs.

``scipy.stats`` costs about 0.9 s and 33 MB to import, and the library uses
it only to draw Sobol points (GP kernel hyperparameters, Sobol collocation).
A serving process that never draws them must never load it: the import is
local to the two Sobol call sites.  These tests check the footprint in a
fresh interpreter, then that the lazily imported draws are the same bytes as
a direct ``scipy.stats.qmc.Sobol`` computation.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import qmc

from repro.data import GaussianProcessSampler, GPBoundaryConfig, periodic_kernel
from repro.pde import Domain
from repro.pde.collocation import sample_interior_sobol

ROOT = Path(__file__).resolve().parents[1]

IMPORT_EVERYTHING = """
import importlib, pkgutil
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(module.name)
"""

IMPORT_BENCHMARK = """
import sys
sys.path.insert(0, "bench")
import workloads
"""

REPORT = """
import sys
print(sorted(m for m in sys.modules if m == "scipy.stats" or m.startswith("scipy.stats.")))
"""


@pytest.mark.parametrize(
    "program", [IMPORT_EVERYTHING, IMPORT_BENCHMARK], ids=["repro", "bench_workloads"]
)
def test_importing_leaves_scipy_stats_unloaded(program):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", program + REPORT], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("seed", [0, 7])
def test_gp_sampler_equals_a_direct_sobol_draw(seed):
    count, size, perimeter = 4, 24, 2.0
    sampled = GaussianProcessSampler(size, perimeter=perimeter, seed=seed).sample(count)

    config = GPBoundaryConfig()
    unit = qmc.Sobol(d=2, scramble=True, seed=seed).random(count)
    (ls_lo, ls_hi), (var_lo, var_hi) = config.lengthscale_range, config.variance_range
    lengthscales = np.exp(np.log(ls_lo) + unit[:, 0] * (np.log(ls_hi) - np.log(ls_lo)))
    variances = np.exp(np.log(var_lo) + unit[:, 1] * (np.log(var_hi) - np.log(var_lo)))
    arc = np.linspace(0.0, perimeter, size, endpoint=False)
    rng = np.random.default_rng(seed)
    expected = np.empty((count, size))
    for i in range(count):
        K = periodic_kernel(arc, arc, float(lengthscales[i]), float(variances[i]), perimeter)
        K[np.diag_indices_from(K)] += config.jitter
        expected[i] = np.linalg.cholesky(K) @ rng.standard_normal(size)
    assert sampled.tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", [0, 7])
def test_sobol_collocation_equals_a_direct_sobol_draw(seed):
    domain = Domain(extent=(0.5, 2.0), origin=(-1.0, 0.25))
    points = sample_interior_sobol(domain, 16, seed=seed)

    unit = qmc.Sobol(d=2, scramble=True, seed=seed).random(16)
    expected = np.stack([-1.0 + unit[:, 0] * 0.5, 0.25 + unit[:, 1] * 2.0], axis=1)
    assert points.tobytes() == expected.tobytes()
