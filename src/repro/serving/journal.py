"""Append-only request journal: the write-ahead log behind ``RequestStore``.

A process restart used to lose the entire request store — every settled
result and every in-flight claim.  The journal makes the store durable with
the classic WAL discipline:

* **record before mutate** — the store appends a ``claim`` record before
  installing an in-flight entry, a ``complete`` record before settling a key
  DONE, and a ``fail`` record before settling it FAILED, so the on-disk
  prefix is always a valid history of the in-memory state;
* **checksummed frames** — each record is ``[u32 length][u32 crc32][pickled
  payload]`` after a magic header, so a torn tail (the process died
  mid-write) is detected byte-precisely and truncated on the next open
  instead of poisoning replay;
* **batched fsync** — appends buffer and fsync every ``fsync_every``
  records (``sync()`` forces one; the unsynced count is exposed as ``lag``
  for health checks), trading a bounded recovery gap for not paying an
  fsync per request;
* **compaction** — :meth:`checkpoint` atomically rewrites the file as one
  ``complete`` record per currently-settled result (temp file + fsync +
  ``os.replace``), dropping the claim/fail churn of history.

Record payloads are pickled ``(kind, key, data)`` tuples.  Store keys are
value-stable across processes — geometries are frozen dataclasses and
boundary loops enter the key as raw bytes — so a recovered store replays
completed keys **bitwise-identically**: the unpickled
:class:`~repro.serving.cache.CachedSolution` holds the exact float64 bytes
that were served before the crash.

Crash semantics under fault injection: a ``torn`` fault at the
``JOURNAL_WRITE`` site flushes half a frame to disk and then marks the
journal failed — from then on appends are dropped (counted in
``dropped_after_failure``) exactly as if the process had died at that write,
so a live test server keeps serving from memory while the on-disk journal
ends at the tear, which is what the next recovery must cope with.
"""

from __future__ import annotations

import os
import pickle
import struct
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path

from .faults import JOURNAL_WRITE, TORN, InjectedFault

__all__ = ["RequestJournal", "JournalCorruptError", "RecoveryReport"]

#: file magic: "repro journal", format version 1
MAGIC = b"RJNL1\n"

#: frame header preceding every record payload
_FRAME = struct.Struct("<II")  # payload length, crc32(payload)

#: pinned pickle protocol so journal bytes do not depend on the interpreter
_PICKLE_PROTOCOL = 4


class JournalCorruptError(RuntimeError):
    """The file exists but is not a journal (bad magic) — never auto-erased."""


@dataclass(frozen=True)
class RecoveryReport:
    """What :meth:`RequestStore.recover` reconstructed from a journal.

    ``orphaned`` keys were claimed but neither completed nor failed before
    the crash (or their completion sat in the torn/unsynced tail): they are
    *not* installed, so the next submission of that key claims it again and
    the solve runs exactly once more — the exactly-once reclaim guarantee.
    Per key the accounting always balances:
    ``completed + failed + len(orphaned)`` equals the number of keys whose
    last journaled transition survived on disk.
    """

    records: int            #: journal records replayed
    completed: int          #: keys restored as settled DONE (bitwise results)
    failed: int             #: keys whose last record was a failure (reclaimable)
    orphaned: tuple         #: keys left in-flight by the crash (reclaimable)
    truncated_bytes: int    #: torn-tail bytes the journal dropped on open


def _scan(path: Path) -> tuple[list[tuple], int, int]:
    """Parse ``path``; returns ``(records, valid_end_offset, file_size)``.

    Stops at the first frame that is short, fails its checksum, or does not
    unpickle — everything after ``valid_end_offset`` is torn tail.
    """

    raw = path.read_bytes()
    size = len(raw)
    if size == 0:
        return [], 0, 0
    if not raw.startswith(MAGIC):
        raise JournalCorruptError(
            f"{path} does not start with the journal magic {MAGIC!r}; "
            "refusing to truncate a file that is not a request journal"
        )
    records: list[tuple] = []
    offset = len(MAGIC)
    while offset + _FRAME.size <= size:
        length, crc = _FRAME.unpack_from(raw, offset)
        start = offset + _FRAME.size
        end = start + length
        if end > size:
            break
        payload = raw[start:end]
        if zlib.crc32(payload) != crc:
            break
        try:
            record = pickle.loads(payload)
        except Exception:
            break
        records.append(record)
        offset = end
    return records, offset, size


class RequestJournal:
    """Append-only checksummed journal of request-store transitions.

    Parameters
    ----------
    path:
        Journal file.  Created (with magic header) if absent; an existing
        journal is scanned and any torn tail is truncated in place before
        appending resumes (``truncated_bytes`` records how much was cut).
    fsync_every:
        Batched-durability knob: fsync after this many appended records.
        ``1`` makes every record durable before the store mutates (and
        before the caller's future can observe the transition); the default
        trades a ``lag``-bounded recovery gap for throughput.
    faults:
        Optional :class:`~repro.serving.faults.FaultInjector`; the
        ``JOURNAL_WRITE`` site fires before every append.
    """

    #: record kinds (the first element of every pickled payload tuple)
    CLAIM = "claim"
    COMPLETE = "complete"
    FAIL = "fail"

    def __init__(self, path, fsync_every: int = 16, faults=None):
        if fsync_every < 1:
            raise ValueError("fsync_every must be at least 1")
        self.path = Path(path)
        self.fsync_every = int(fsync_every)
        self.faults = faults
        self._lock = threading.RLock()
        self._dirty = 0
        self._failed = False
        # -- counters (exposed via stats()) --
        self.appended = 0            #: records appended this process
        self.syncs = 0               #: fsync batches issued
        self.torn_writes = 0         #: injected torn writes
        self.dropped_after_failure = 0  #: appends dropped after a torn write
        self.checkpoints = 0         #: compacting rewrites
        self.truncated_bytes = 0     #: torn-tail bytes cut on open
        self.records_on_open = 0     #: valid records found on open

        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.path.exists() and self.path.stat().st_size > 0:
            records, valid_end, size = _scan(self.path)
            self.records_on_open = len(records)
            if valid_end < size:
                self.truncated_bytes = size - valid_end
                with open(self.path, "r+b") as handle:
                    handle.truncate(valid_end)
                    handle.flush()
                    os.fsync(handle.fileno())
        else:
            with open(self.path, "wb") as handle:
                handle.write(MAGIC)
                handle.flush()
                os.fsync(handle.fileno())
        self._fh = open(self.path, "ab")

    # -- appends ------------------------------------------------------------------

    def append_claim(self, key: tuple) -> None:
        """Record that ``key`` became the in-flight claim of some submission."""

        self._append(self.CLAIM, key, None)

    def append_complete(self, key: tuple, result) -> None:
        """Record ``key`` settling DONE with its full ``CachedSolution``."""

        self._append(self.COMPLETE, key, result)

    def append_fail(self, key: tuple, error: str) -> None:
        """Record ``key`` settling FAILED (reclaimable on recovery)."""

        self._append(self.FAIL, key, str(error))

    def _append(self, kind: str, key: tuple, data) -> None:
        payload = pickle.dumps((kind, key, data), protocol=_PICKLE_PROTOCOL)
        frame = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        with self._lock:
            if self._failed:
                # A torn write "killed" this journal's process: behave as the
                # crashed process would — no further records reach the disk.
                self.dropped_after_failure += 1
                return
            if self._fh.closed:  # closed by a drain_and_close() and restarted
                self._fh = open(self.path, "ab")
            if self.faults is not None:
                spec = self.faults.fire(JOURNAL_WRITE, kind=kind)
                if spec is not None and spec.kind == TORN:
                    self._fh.write(frame[: max(1, len(frame) // 2)])
                    self._fh.flush()
                    os.fsync(self._fh.fileno())
                    self._failed = True
                    self.torn_writes += 1
                    raise InjectedFault(
                        f"injected torn journal write ({kind} record "
                        f"#{self.appended})"
                    )
            self._fh.write(frame)
            self.appended += 1
            self._dirty += 1
            if self._dirty >= self.fsync_every:
                self._sync_locked()

    # -- durability ---------------------------------------------------------------

    def sync(self) -> None:
        """Force-fsync any buffered records (drops ``lag`` to zero)."""

        with self._lock:
            if self._dirty:
                self._sync_locked()

    def _sync_locked(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._dirty = 0
        self.syncs += 1

    @property
    def lag(self) -> int:
        """Appended records not yet fsynced — the bounded recovery gap."""

        with self._lock:
            return self._dirty

    @property
    def failed(self) -> bool:
        """Whether a torn write permanently failed this journal handle."""

        with self._lock:
            return self._failed

    # -- replay / compaction ------------------------------------------------------

    def replay(self) -> list[tuple]:
        """Every valid ``(kind, key, data)`` record currently on disk.

        Flushes the OS-level buffer first so a same-process reader sees all
        appended records (fsync is about durability, not visibility); on a
        torn journal the replay naturally ends at the tear.
        """

        with self._lock:
            if not self._fh.closed:
                self._fh.flush()
            records, _, _ = _scan(self.path)
            return records

    def checkpoint(self, entries) -> int:
        """Compact: atomically rewrite as one COMPLETE record per entry.

        ``entries`` is an iterable of ``(key, result)``; the rewrite goes to
        a temp file, is fsynced, and replaces the journal with
        :func:`os.replace`, so a crash during compaction leaves either the
        old or the new journal — never a mix.  Clears the failed flag: the
        rewritten file is whole again.  Returns the number of records
        written.
        """

        with self._lock:
            tmp = self.path.with_name(self.path.name + ".tmp")
            written = 0
            with open(tmp, "wb") as handle:
                handle.write(MAGIC)
                for key, result in entries:
                    payload = pickle.dumps(
                        (self.COMPLETE, key, result), protocol=_PICKLE_PROTOCOL
                    )
                    handle.write(
                        _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
                    )
                    written += 1
                handle.flush()
                os.fsync(handle.fileno())
            self._fh.close()
            os.replace(tmp, self.path)
            self._fh = open(self.path, "ab")
            self._dirty = 0
            self._failed = False
            self.checkpoints += 1
            return written

    def close(self) -> None:
        """Sync and close the append handle (idempotent; an append reopens it)."""

        with self._lock:
            if self._fh.closed:
                return
            if self._dirty and not self._failed:
                self._sync_locked()
            self._fh.close()

    def stats(self) -> dict:
        with self._lock:
            if not self._fh.closed:
                self._fh.flush()
            return {
                "path": str(self.path),
                "appended": self.appended,
                "syncs": self.syncs,
                "lag": self._dirty,
                "records_on_open": self.records_on_open,
                "truncated_bytes_on_open": self.truncated_bytes,
                "checkpoints": self.checkpoints,
                "torn_writes": self.torn_writes,
                "dropped_after_failure": self.dropped_after_failure,
                "size_bytes": self.path.stat().st_size if self.path.exists() else 0,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RequestJournal({str(self.path)!r}, appended={self.appended}, "
            f"lag={self.lag})"
        )
