"""Request/response API of the Mosaic Flow serving layer.

A :class:`SolveRequest` is one boundary value problem posed to the service:
the interface-lattice geometry of the target domain, the Dirichlet data
along its global boundary loop, and the solve parameters (tolerance,
iteration budget, lattice initialization).  Construction goes through
:meth:`SolveRequest.create`, which validates and *canonicalizes* the BVP —
the boundary loop becomes a contiguous float64 vector of the exact length the
geometry prescribes — so that every component downstream (batcher, cache,
lattice run) can rely on a normal form and hash it cheaply.

Requests that share a :meth:`SolveRequest.group_key` are fusable: they can be
stacked into one batched :class:`~repro.mosaic.MosaicFlowPredictor`-style run
because they agree on everything that shapes the iteration (geometry,
initialization, convergence-check cadence).  Per-request tolerance and
iteration budgets do *not* enter the group key — the lattice run
(:class:`~repro.mosaic.core.LatticeRun`) tracks convergence per request.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..mosaic.geometry import MosaicGeometry

__all__ = ["RequestValidationError", "SolveRequest", "SolveResult"]


_INIT_MODES = ("zero", "mean", "linear")

_id_counter = itertools.count()
_id_lock = threading.Lock()


def _next_request_id() -> str:
    with _id_lock:
        return f"req-{next(_id_counter)}"


class RequestValidationError(ValueError):
    """Raised when a solve request fails validation."""


@dataclass(frozen=True, eq=False)
class SolveRequest:
    """One canonicalized boundary value problem posed to the serving layer.

    Do not instantiate directly — use :meth:`create` (or
    :meth:`from_function`), which validates and canonicalizes the inputs.

    Attributes
    ----------
    request_id:
        Unique identifier assigned at creation (or caller-provided).
    geometry:
        Interface-lattice geometry of the target domain.
    boundary_loop:
        Canonical Dirichlet data: contiguous float64 vector of length
        ``geometry.global_boundary_size`` (the re-entrant boundary loop for
        composite geometries).
    tol:
        Relative-change convergence threshold of the lattice iteration.
    max_iterations:
        Iteration budget of the lattice iteration.
    init_mode:
        Lattice initialization mode (``"zero"``, ``"mean"`` or ``"linear"``).
    check_interval:
        Convergence-check cadence in iterations.
    deadline_seconds:
        Optional completion deadline, measured from submission under the
        server's clock.  An expired request fails fast with
        :class:`~repro.serving.futures.DeadlineExceededError` instead of
        occupying solver capacity; a solve finishing past the deadline
        rejects the waiter the same way.  Not part of the group, cache or
        store keys — the same BVP with different deadlines is one solve.
    tenant:
        Admission-control tenant the request is accounted against (quotas
        are per tenant).  Not part of the group, cache or store keys.
    """

    request_id: str
    geometry: MosaicGeometry
    boundary_loop: np.ndarray
    tol: float
    max_iterations: int
    init_mode: str
    check_interval: int
    deadline_seconds: float | None = None
    tenant: str = "default"

    @classmethod
    def create(
        cls,
        geometry: MosaicGeometry,
        boundary_loop: np.ndarray,
        tol: float = 1e-6,
        max_iterations: int = 400,
        init_mode: str = "mean",
        check_interval: int = 1,
        request_id: str | None = None,
        deadline_seconds: float | None = None,
        tenant: str = "default",
    ) -> "SolveRequest":
        """Validate and canonicalize a BVP into a :class:`SolveRequest`."""

        if not isinstance(geometry, MosaicGeometry):
            raise RequestValidationError(
                f"geometry must be a MosaicGeometry, got {type(geometry).__name__}"
            )
        # Private copy: a queued request must not alias caller memory the
        # caller may mutate before the batch executes.
        loop = np.array(boundary_loop, dtype=float, copy=True, order="C")
        expected = geometry.global_boundary_size
        if loop.ndim != 1 or loop.shape[0] != expected:
            raise RequestValidationError(
                f"boundary loop must be a vector of length {expected} for this "
                f"geometry, got shape {np.shape(boundary_loop)}"
            )
        if not np.all(np.isfinite(loop)):
            raise RequestValidationError("boundary loop contains non-finite values")
        if not (np.isfinite(tol) and tol >= 0.0):
            raise RequestValidationError(f"tol must be finite and >= 0, got {tol}")
        if int(max_iterations) < 1:
            raise RequestValidationError("max_iterations must be at least 1")
        if init_mode not in _INIT_MODES:
            raise RequestValidationError(
                f"init_mode must be one of {_INIT_MODES}, got {init_mode!r}"
            )
        if init_mode == "linear" and not geometry.is_rectangular:
            raise RequestValidationError(
                "init_mode 'linear' is only defined on rectangular domains"
            )
        if int(check_interval) < 1:
            raise RequestValidationError("check_interval must be at least 1")
        if deadline_seconds is not None and not (
            np.isfinite(deadline_seconds) and deadline_seconds > 0
        ):
            raise RequestValidationError(
                f"deadline_seconds must be finite and positive, got {deadline_seconds}"
            )
        if not isinstance(tenant, str) or not tenant:
            raise RequestValidationError("tenant must be a non-empty string")
        loop.flags.writeable = False
        return cls(
            request_id=request_id if request_id is not None else _next_request_id(),
            geometry=geometry,
            boundary_loop=loop,
            tol=float(tol),
            max_iterations=int(max_iterations),
            init_mode=init_mode,
            check_interval=int(check_interval),
            deadline_seconds=(
                float(deadline_seconds) if deadline_seconds is not None else None
            ),
            tenant=tenant,
        )

    @classmethod
    def from_function(
        cls,
        geometry: MosaicGeometry,
        fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
        **kwargs,
    ) -> "SolveRequest":
        """Build a request by sampling ``fn(x, y)`` along the global boundary.

        For composite geometries the function is sampled along the re-entrant
        composite boundary loop.
        """

        loop = geometry.boundary_from_function(fn)
        return cls.create(geometry, loop, **kwargs)

    @property
    def group_key(self) -> tuple:
        """Key under which requests can be fused into one batched run."""

        return (self.geometry, self.init_mode, self.check_interval)


@dataclass
class SolveResult:
    """Outcome of one served solve request.

    ``batch_size`` is the number of requests in the batch that produced this
    solution, one session row each (0 for cache hits and store replays, which
    ran no solver at all);
    ``latency_seconds`` measures submit-to-completion time under the server's
    clock.
    """

    request_id: str
    solution: np.ndarray
    iterations: int
    converged: bool
    cache_hit: bool = False
    batch_size: int = 0
    latency_seconds: float = 0.0
    deltas: list = field(default_factory=list)
