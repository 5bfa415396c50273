"""Start-up pays only for what a process runs.

``scipy.stats`` costs about 0.4 s and 33 MB to import, and the library never
needs it: its only use was drawing Sobol points (GP kernel hyperparameters,
Sobol collocation), which ``repro.utils.sobol_2d`` now does in numpy.  These
tests check in a fresh interpreter that importing the library, or drawing a
dataset and training on it, leaves ``scipy.stats`` unloaded; then that the
draws are the same bytes as a direct ``scipy.stats.qmc.Sobol`` computation
and raise no warning.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import qmc

from repro.data import (
    GaussianProcessSampler,
    GPBoundaryConfig,
    generate_dataset,
    periodic_kernel,
)
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

DRAW_AND_TRAIN = """
from repro.data import generate_dataset
from repro.models import SDNet
from repro.pde import Domain
from repro.pde.collocation import sample_interior_sobol
from repro.training import Trainer, TrainingConfig
dataset = generate_dataset(8, resolution=9)
sample_interior_sobol(Domain(), 16, seed=0)
model = SDNet(boundary_size=dataset.grid.boundary_size, hidden_size=8, trunk_layers=1, rng=0)
config = TrainingConfig(epochs=1, batch_size=4, data_points_per_domain=8,
                        collocation_points_per_domain=4)
Trainer(model, config, dataset).fit()
"""

REPORT = """
import sys
print(sorted(m for m in sys.modules if m == "scipy.stats" or m.startswith("scipy.stats.")))
"""


@pytest.mark.parametrize(
    "program",
    [IMPORT_EVERYTHING, IMPORT_BENCHMARK, DRAW_AND_TRAIN],
    ids=["repro", "bench_workloads", "draw_and_train"],
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


def test_sobol_draws_raise_no_warnings():
    # Non-power-of-2 counts: scipy warns about the balance properties here.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        generate_dataset(6, resolution=9, seed=3)
        sample_interior_sobol(Domain(), 5, seed=3)
