"""Forked child processes: the one fork discipline of the package.

Two kinds of children are forked from a parent that may be running other
threads: the compute process of a started server's solve worker
(:mod:`repro.serving.compute`) and the ranks of a distributed run
(:mod:`repro.distributed.processes`).  Both follow the rules kept here.

* Every fork uses :data:`FORK` while holding :data:`FORK_LOCK`, so no child
  inherits a pipe end that another thread has half set up.
* A parent end that must see EOF when its child dies is registered in
  :data:`PARENT_ENDS`.  :func:`start` closes every registered end in the
  child, so the parent holds the only copy besides the child's own.
* Every module lock a child may take is re-created in the child
  (``os.register_at_fork`` in the module that owns it): a parent thread
  that held it at the fork does not exist there.
* An exception crosses a pipe as itself, or as ``RuntimeError(repr(exc))``
  when it cannot be pickled (:func:`portable`).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import weakref
from functools import cached_property

__all__ = [
    "FORK", "FORK_LOCK", "PARENT_ENDS", "fresh_cached_property_locks", "peak_rss_mb",
    "portable", "start",
]

FORK = multiprocessing.get_context("fork")
#: one fork at a time, so no child inherits a pipe end that is half set up
FORK_LOCK = threading.Lock()
#: the parent ends of every live child's pipe.  A child closes its copies,
#: so a pipe's reader sees EOF as soon as its own peer is gone.
PARENT_ENDS: "weakref.WeakSet" = weakref.WeakSet()


def start(target, args, name: str, close=()):
    """Fork a daemon child that runs ``target(*args)``; returns its process.

    The child first closes its copies of :data:`PARENT_ENDS` and of the
    connections in ``close``.  The caller holds :data:`FORK_LOCK`.
    """

    process = FORK.Process(
        target=_child, name=name, daemon=True, args=([*PARENT_ENDS, *close], target, args))
    process.start()
    return process


def _child(inherited, target, args) -> None:
    for end in inherited:
        end.close()
    target(*args)


def fresh_cached_property_locks(cls) -> None:
    """Re-create in every forked child the locks of ``cls``'s cached properties.

    Before Python 3.12 a ``functools.cached_property`` computes under a lock
    of its own, shared by every instance; a child must not inherit it held.
    """

    properties = [value for value in vars(cls).values()
                  if isinstance(value, cached_property) and hasattr(value, "lock")]
    if properties:
        def fresh() -> None:
            for prop in properties:
                prop.lock = threading.RLock()

        os.register_at_fork(after_in_child=fresh)


def portable(exc: Exception) -> Exception:
    """``exc`` if it survives pickling, else ``RuntimeError(repr(exc))``."""

    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:  # noqa: BLE001 - whatever pickling raises
        return RuntimeError(repr(exc))
    return exc


def peak_rss_mb(pid="self") -> float | None:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""

    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None
