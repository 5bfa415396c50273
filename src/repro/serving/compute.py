"""Forked compute processes for the solve workers of a started server.

Two threads of one Python process cannot run two lattice runs at once: the
SDNet forward is many small numpy calls under the interpreter lock, and two
solve threads side by side each took about twice as long as one.  So a
started :class:`~repro.serving.server.Server` with two or more solve workers
gives each worker a :class:`ComputeProcess`, a child forked in ``start()``
after the solver factory's model exists.

The parent keeps everything except the arithmetic: admission, store,
journal, batcher, retries, breakers, fault sites, supervision and delivery.
For each solve attempt the worker thread sends the prepared
:class:`~repro.mosaic.core.Session` objects over a pipe.  The child runs
:func:`lattice_run`, the same code a single worker runs in its own thread,
on a solver it builds from the inherited factory.  It returns the
outcomes plus the rows and session count of every solver call.  The same
code runs on the same BLAS, so a served solution stays bitwise equal to its
standalone run.

* A child that dies (EOF on its pipe) raises
  :class:`~repro.serving.faults.WorkerDeath` in its worker thread, and the
  next run on that worker forks a replacement.
* A child refuses a run when the model's parameter versions
  (``Parameter.version``) differ from the ones it was forked with.  The
  worker then re-forks it and sends the run again, so stale weights never
  answer.
* A solver exception crosses the pipe as itself, or as
  ``RuntimeError(repr(exc))`` when it cannot be pickled.
* Geometries are interned in the child, so an unpickled geometry finds the
  masks and plans that its first copy built.

Children fork by :mod:`repro.procs`'s rules, which the distributed ranks
share: among them, every module lock the compute path takes is re-created in
a forked child, since the parent is multi-threaded when a worker re-forks.
"""

from __future__ import annotations

import gc
import threading
import time
from collections import OrderedDict

from ..mosaic.core import PLAN_CACHE, LatticeRun, checked_solver
from ..mosaic.solvers import _PROGRAMS
from ..procs import FORK, FORK_LOCK, PARENT_ENDS, peak_rss_mb, portable, start
from .faults import WorkerDeath

__all__ = ["ComputeProcess", "lattice_run", "model_version", "remember"]

_OK, _STALE, _ERROR = "ok", "stale", "error"


def remember(lru: OrderedDict, key, value):
    """The value kept under ``key`` (``value`` if none), now most recent.

    LRUs hold as many entries as the lattice plan cache.
    """

    value = lru.setdefault(key, value)
    lru.move_to_end(key)
    while len(lru) > PLAN_CACHE.capacity:
        lru.popitem(last=False)
    return value


def model_version(solver) -> tuple | None:
    """The parameter versions of ``solver``'s model, ``None`` if it has none."""

    model = getattr(solver, "model", None)
    if model is None:
        return None
    return tuple(p.version for p in model.parameters())


def lattice_run(solver, sessions) -> tuple[list, list]:
    """Run ``sessions`` (one :class:`~repro.mosaic.core.Session` per batch) as
    one :class:`~repro.mosaic.core.LatticeRun` on ``solver``.

    Every iteration and every assembly chunk is one uncapped solver call over
    the rows of all sessions.  Returns the outcomes per session and one
    ``(rows, sessions)`` pair per solver call.
    """

    for session in sessions:
        checked_solver(session.geometry, solver)
    calls: list = []

    def predict(boundaries, points, count):
        calls.append((boundaries.shape[0], count))
        return solver.predict(boundaries, points)

    run = LatticeRun(sessions)
    run.iterate(predict)
    return run.outcomes(predict), calls


def _programs() -> list:
    """Every compiled inference program of this process's models."""

    return [
        program
        for programs in list(_PROGRAMS.values())
        for program in programs.by_points.values()
    ]


def _plan_totals(programs) -> tuple[int, int]:
    """Plans built and plan bytes held by ``programs``."""

    stats = [program.stats for program in programs]
    return sum(s.plan_builds for s in stats), sum(s.plan_bytes for s in stats)


def _compute(conn, solver_factory) -> None:
    """The child's loop: one reply per run until the parent says stop."""

    solvers: OrderedDict = OrderedDict()
    geometries: OrderedDict = OrderedDict()
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return  # the parent is gone
        if message is None:
            return
        compat_key, version, sessions = message
        began = time.perf_counter()
        try:
            solver = solvers.get(compat_key)
            if solver is None:
                solver = solver_factory(sessions[0].geometry)
            solver = remember(solvers, compat_key, solver)
            if model_version(solver) != version:
                reply = (_STALE,)
            else:
                for session in sessions:
                    session.geometry = remember(geometries, session.geometry, session.geometry)
                outcomes, calls = lattice_run(solver, sessions)
                reply = (_OK, outcomes, calls, time.perf_counter() - began)
        except Exception as exc:  # noqa: BLE001 - sent to the parent's retry loop
            reply = (_ERROR, portable(exc))
        conn.send(reply)


def _child_main(conn, solver_factory) -> None:
    # Kept alive to the end: a program of a model that was already garbage
    # at the fork, and is collected here, must count at both ends.
    forked_with = _programs()
    built, held = _plan_totals(forked_with)
    # The runs execute on a thread of their own: when it exits, its plans
    # are credited back exactly as for any thread that used a program.
    compute = threading.Thread(
        target=_compute, name="serving-compute", args=(conn, solver_factory)
    )
    compute.start()
    compute.join()
    gc.collect()
    now_built, now_held = _plan_totals(
        {id(program): program for program in forked_with + _programs()}.values()
    )
    try:
        conn.send({
            "plan_builds": now_built - built,
            "plan_bytes_held": now_held - held,
            "peak_rss_mb": peak_rss_mb(),
        })
    except OSError:
        pass  # the parent is gone


class ComputeProcess:
    """The forked child of one solve worker, and the pipe to it.

    Used by one worker thread at a time; :meth:`stop` runs once that thread
    is done.
    """

    def __init__(self, name: str, solver_factory):
        self.name = name
        self._solver_factory = solver_factory
        self._process = None
        self._conn = None
        #: lattice runs answered, and children forked (the first one included)
        self.runs = 0
        self.forks = 0
        #: what the last stopped child reported: plans built, plan bytes it
        #: still held after its compute thread exited, peak RSS
        self.exit_report: dict | None = None

    @property
    def pid(self) -> int | None:
        return None if self._process is None else self._process.pid

    @property
    def alive(self) -> bool:
        return self._process is not None and self._process.exitcode is None

    def fork(self) -> None:
        """Start a fresh child, stopping the current one first."""

        self.stop()
        with FORK_LOCK:
            ours, theirs = FORK.Pipe()
            process = start(_child_main, (theirs, self._solver_factory), self.name, close=[ours])
            theirs.close()
            PARENT_ENDS.add(ours)
            self._process, self._conn = process, ours
        self.forks += 1

    def stop(self, timeout: float = 5.0) -> None:
        """Ask the child to exit and reap it; killed if it does not go."""

        process, conn = self._process, self._conn
        if conn is None:
            return
        try:
            if process.exitcode is None:
                conn.send(None)
                if conn.poll(timeout):
                    self.exit_report = conn.recv()
        except (EOFError, OSError):
            pass  # it died on its own
        process.join(timeout)
        if process.exitcode is None:
            process.kill()
            process.join()
        with FORK_LOCK:
            PARENT_ENDS.discard(conn)
            conn.close()
            self._conn = None

    def run(self, compat_key, version, sessions) -> tuple:
        """One lattice run in the child: ``(outcomes, calls, compute_s)``."""

        while True:
            if not self.alive:
                self.fork()  # the replacement of a child that died
            try:
                self._conn.send((compat_key, version, sessions))
                reply = self._conn.recv()
            except (EOFError, OSError) as exc:
                self._process.join(1.0)
                raise WorkerDeath(
                    f"compute process {self.pid} of {self.name} died "
                    f"(exit code {self._process.exitcode})"
                ) from exc
            if reply[0] != _STALE:
                break
            self.fork()  # the model's parameters moved since this child forked
        if reply[0] == _ERROR:
            raise reply[1]
        self.runs += 1
        return reply[1:]

    def health(self) -> dict:
        alive = self.alive
        report = self.exit_report or {}
        return {
            "name": self.name,
            "pid": self.pid,
            "alive": alive,
            "runs": self.runs,
            "forks": self.forks,
            "peak_rss_mb": peak_rss_mb(self.pid) if alive else report.get("peak_rss_mb"),
            "exit": self.exit_report,
        }
