"""LRU solution cache keyed by quantized boundary data.

Production traffic on a PDE service is heavily repetitive: the same or
nearly-the-same boundary conditions are posed again and again (parameter
sweeps, retries, dashboards refreshing a figure).  The cache exploits the
well-posedness of the Dirichlet problem — by the maximum principle the
solution is 1-Lipschitz in the sup-norm of the boundary data — so two
requests whose boundary loops agree after rounding to ``decimals`` digits
have solutions within ``0.5 * 10**-decimals`` of each other, and the cached
solution can be returned for both.  With the default ``decimals=9`` the
substitution error (< 5e-10) is far below the service's accuracy guarantee.

Keys also include the solve parameters (geometry, tolerance, iteration
budget, initialization, check cadence): a looser tolerance must not serve a
request that asked for a tighter one.  The cache is scoped to one server and
therefore one subdomain solver; entries from different solvers never mix.
It is shared by the submitting threads (``get``) and the solve workers
(``put``), so one lock guards every access.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..obs import memory as obs_memory
from .api import SolveRequest

__all__ = ["CachedSolution", "SolutionCache"]


@dataclass
class CachedSolution:
    """Stored outcome of one solved request.

    Entries are stored and returned by reference — treat them as immutable.
    The server copies the solution array into each :class:`SolveResult` it
    hands out; direct cache users must do the same before mutating.
    """

    solution: np.ndarray
    iterations: int
    converged: bool
    deltas: list = field(default_factory=list)

    @property
    def nbytes(self) -> int:
        """Approximate retained bytes (solution array plus delta floats)."""

        return int(self.solution.nbytes) + 8 * len(self.deltas)


class SolutionCache:
    """Bounded LRU cache of solved BVPs.

    Parameters
    ----------
    capacity:
        Maximum number of cached solutions; the least recently used entry is
        evicted when full.
    decimals:
        Boundary values are rounded to this many decimal digits before
        hashing, so near-duplicate requests share an entry.
    """

    def __init__(self, capacity: int = 256, decimals: int = 9):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        if decimals < 0:
            raise ValueError("decimals must be non-negative")
        self.capacity = int(capacity)
        self.decimals = int(decimals)
        self._entries: OrderedDict[tuple, CachedSolution] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def key_for(self, request: SolveRequest) -> tuple:
        """Quantized cache key of a canonicalized request."""

        quantized = np.round(request.boundary_loop, self.decimals)
        # Normalize -0.0 to 0.0 so the byte-level hash is sign-insensitive.
        quantized = quantized + 0.0
        return (
            request.geometry,
            request.init_mode,
            request.check_interval,
            request.tol,
            request.max_iterations,
            quantized.tobytes(),
        )

    def get(self, request: SolveRequest) -> CachedSolution | None:
        """Look up a request; counts a hit/miss and refreshes LRU order."""

        key = self.key_for(request)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, request: SolveRequest, entry: CachedSolution) -> None:
        """Insert (or refresh) the solved outcome for a request."""

        key = self.key_for(request)
        with self._lock:
            previous = self._entries.get(key)
            if previous is not None:
                self._entries.move_to_end(key)
                if previous is not entry:
                    obs_memory.sub(obs_memory.SOLUTION_CACHE, previous.nbytes)
                    obs_memory.add(obs_memory.SOLUTION_CACHE, entry.nbytes)
            else:
                obs_memory.add(obs_memory.SOLUTION_CACHE, entry.nbytes)
            self._entries[key] = entry
            while len(self._entries) > self.capacity:
                _, evicted = self._entries.popitem(last=False)
                obs_memory.sub(obs_memory.SOLUTION_CACHE, evicted.nbytes)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            for entry in self._entries.values():
                obs_memory.sub(obs_memory.SOLUTION_CACHE, entry.nbytes)
            self._entries.clear()

    def stats(self) -> dict:
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": self.hit_rate,
            }
