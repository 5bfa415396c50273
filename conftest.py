"""Repository-level pytest configuration.

Adds ``src/`` to ``sys.path`` so the test-suite and benchmarks run even when
the package has not been installed (the offline environment lacks the
``wheel`` package required by PEP 517 editable installs; see README).
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(__file__), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture(scope="session")
def eager_sdnet_solver():
    """The oracle of the compiled SDNet inference path, as a solver class.

    :class:`repro.mosaic.SDNetSubdomainSolver` with its compiled forward
    replaced by the eager ``model(g, x)`` one — the points repeated for every
    row — under the same chunk rule (at most ``GEMM_STABLE_ROWS`` rows per
    forward, singleton chunks padded to two).  The library has no eager
    inference path any more; its predictions must equal this one's bit for
    bit.
    """

    from repro.autodiff import Tensor, no_grad
    from repro.mosaic.solvers import GEMM_STABLE_ROWS, SDNetSubdomainSolver

    class EagerSDNetSolver(SDNetSubdomainSolver):
        def predict(self, boundaries, points):
            boundaries = np.asarray(boundaries, dtype=float)
            points = np.asarray(points, dtype=float)
            out = np.empty((len(boundaries), len(points)))
            step = len(boundaries) if self.max_batch is None else max(int(self.max_batch), 1)
            step = min(max(step, 1), GEMM_STABLE_ROWS)
            for start in range(0, len(boundaries), step):
                rows = boundaries[start:start + step]
                kept = len(rows)
                if kept == 1:
                    rows = np.concatenate([rows, rows])
                x = np.broadcast_to(points, (len(rows),) + points.shape).copy()
                with no_grad():
                    out[start:start + step] = self.model(Tensor(rows), Tensor(x)).data[:kept]
                self.inference_calls += 1
                self.points_evaluated += kept * len(points)
            return out

    return EagerSDNetSolver
