"""Durable request store: journal format, torn writes, crash recovery.

The scenarios simulate a process crash by opening a *fresh* journal /
store / server over the same file the "crashed" instance wrote — recovery
must replay completed keys bitwise-identically and leave interrupted claims
reclaimable exactly once.
"""

import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.serving import (
    JOURNAL_WRITE,
    TORN,
    BatchPolicy,
    FaultInjector,
    FaultSpec,
    InjectedFault,
    JournalCorruptError,
    RequestJournal,
    RequestStore,
    RetryExhaustedError,
    Server,
    SolutionCache,
    SolveRequest,
)
from repro.serving.cache import CachedSolution

ARTIFACTS = Path(__file__).resolve().parents[2] / "test-artifacts" / "serving"


@pytest.fixture(autouse=True)
def _journal_artifact(request, tmp_path):
    """Persist a failing scenario's journal files for the CI artifact upload."""

    yield
    report = getattr(request.node, "rep_call", None)
    if report is not None and report.failed:
        ARTIFACTS.mkdir(parents=True, exist_ok=True)
        safe = re.sub(r"[^\w.-]+", "_", request.node.nodeid)
        for wal in tmp_path.glob("*.wal*"):
            shutil.copy(wal, ARTIFACTS / f"{safe}__{wal.name}")


def _solution(seed: int) -> CachedSolution:
    rng = np.random.default_rng(seed)
    return CachedSolution(
        solution=rng.normal(size=(5, 5)),
        iterations=int(rng.integers(1, 50)),
        converged=True,
        deltas=[0.5, 0.1],
    )


def _server(clock, **kwargs):
    kwargs.setdefault("policy", BatchPolicy(max_batch_size=8, max_wait_seconds=1e9))
    kwargs.setdefault("cache", SolutionCache(capacity=64))
    kwargs.setdefault("sleep", clock.advance)
    return Server(clock=clock, **kwargs)


class TestJournalFile:
    def test_roundtrip_and_lag(self, tmp_path):
        journal = RequestJournal(tmp_path / "requests.wal", fsync_every=4)
        journal.append_claim(("k1",))
        journal.append_complete(("k1",), _solution(1))
        journal.append_fail(("k2",), "boom")
        assert journal.lag == 3  # below the fsync batch: buffered
        journal.sync()
        assert journal.lag == 0
        records = journal.replay()
        assert [(kind, key) for kind, key, _ in records] == [
            ("claim", ("k1",)),
            ("complete", ("k1",)),
            ("fail", ("k2",)),
        ]
        # The completed payload replays bitwise.
        assert records[1][2].solution.tobytes() == _solution(1).solution.tobytes()
        journal.close()

    def test_fsync_batching(self, tmp_path):
        journal = RequestJournal(tmp_path / "requests.wal", fsync_every=2)
        journal.append_claim(("a",))
        assert journal.lag == 1
        journal.append_claim(("b",))
        assert journal.lag == 0  # batch boundary fsynced
        assert journal.stats()["syncs"] == 1
        journal.close()

    def test_torn_tail_truncated_on_open(self, tmp_path):
        path = tmp_path / "requests.wal"
        journal = RequestJournal(path)
        journal.append_claim(("a",))
        journal.append_complete(("a",), _solution(2))
        journal.close()
        whole = path.stat().st_size
        torn_tail = b"\x40\x00\x00\x00\xde\xad\xbe\xef torn"
        with open(path, "ab") as handle:  # half a frame: the torn tail
            handle.write(torn_tail)
        reopened = RequestJournal(path)
        assert reopened.records_on_open == 2
        assert reopened.truncated_bytes == len(torn_tail)
        assert path.stat().st_size == whole  # tail cut in place
        assert len(reopened.replay()) == 2
        # Appending after truncation resumes cleanly.
        reopened.append_fail(("a",), "later")
        reopened.sync()
        assert len(reopened.replay()) == 3
        reopened.close()

    def test_mid_record_corruption_stops_scan(self, tmp_path):
        path = tmp_path / "requests.wal"
        journal = RequestJournal(path)
        journal.append_claim(("a",))
        journal.append_claim(("b",))
        journal.close()
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0xFF  # flip a byte inside the last record's payload
        path.write_bytes(raw)
        reopened = RequestJournal(path)
        assert reopened.records_on_open == 1  # bad-crc record and after: gone
        assert reopened.truncated_bytes > 0
        reopened.close()

    def test_non_journal_file_is_never_truncated(self, tmp_path):
        path = tmp_path / "precious.txt"
        path.write_text("not a journal")
        with pytest.raises(JournalCorruptError):
            RequestJournal(path)
        assert path.read_text() == "not a journal"

    def test_checkpoint_compacts_atomically(self, tmp_path):
        path = tmp_path / "requests.wal"
        journal = RequestJournal(path)
        for i in range(4):
            journal.append_claim((f"k{i}",))
            journal.append_complete((f"k{i}",), _solution(i))
        journal.append_fail(("k9",), "boom")
        written = journal.checkpoint([((f"k{i}",), _solution(i)) for i in range(2)])
        assert written == 2
        records = journal.replay()
        assert [kind for kind, _, _ in records] == ["complete", "complete"]
        assert journal.stats()["checkpoints"] == 1
        journal.close()

    def test_injected_torn_write_fails_journal_permanently(self, tmp_path):
        faults = FaultInjector(
            [FaultSpec(site=JOURNAL_WRITE, index=1, kind=TORN)]
        )
        journal = RequestJournal(tmp_path / "requests.wal", faults=faults)
        journal.append_claim(("a",))
        with pytest.raises(InjectedFault):
            journal.append_complete(("a",), _solution(3))
        assert journal.failed
        # The "process" died at the tear: further appends reach no disk.
        journal.append_fail(("a",), "after death")
        stats = journal.stats()
        assert stats["torn_writes"] == 1
        assert stats["dropped_after_failure"] == 1
        # The next open truncates the half-written frame and sees the prefix.
        recovered = RequestJournal(tmp_path / "requests.wal")
        assert recovered.truncated_bytes > 0
        assert [kind for kind, _, _ in recovered.replay()] == ["claim"]
        recovered.close()
        journal.close()


class TestStoreRecovery:
    def test_recover_installs_last_state_per_key(self, tmp_path):
        journal = RequestJournal(tmp_path / "requests.wal")
        done = _solution(4)
        journal.append_claim(("done",))
        journal.append_complete(("done",), done)
        journal.append_claim(("failed",))
        journal.append_fail(("failed",), "boom")
        journal.append_claim(("orphan",))
        journal.sync()

        store = RequestStore()
        report = store.recover(journal)
        assert (report.records, report.completed, report.failed) == (5, 1, 1)
        assert report.orphaned == (("orphan",),)
        # Balanced exactly-once accounting over the keys on disk.
        assert report.completed + report.failed + len(report.orphaned) == 3
        assert store.peek(("done",)).solution.tobytes() == done.solution.tobytes()
        assert store.peek(("failed",)) is None  # reclaimable
        assert store.peek(("orphan",)) is None  # reclaimable, exactly once
        assert store.stats()["recovered"] == 1
        assert store.journal is journal
        journal.close()

    def test_server_restart_replays_bitwise(self, small_geometry, harmonic_loops,
                                            fake_clock, tmp_path):
        path = tmp_path / "requests.wal"
        loops = harmonic_loops(3, seed=31)
        requests = [
            SolveRequest.create(small_geometry, loop, max_iterations=40)
            for loop in loops
        ]
        first = _server(fake_clock, journal=path)
        assert first.recovery.records == 0
        for request in requests:
            first.submit(request)
        before = first.drain_and_close()
        assert first.store.journal.stats()["checkpoints"] == 1

        # "Restart": a fresh server over the same journal file.
        second = _server(fake_clock, journal=path)
        assert second.recovery.completed == len(requests)
        assert second.recovery.orphaned == ()
        resubmitted = [
            SolveRequest.create(small_geometry, loop, max_iterations=40)
            for loop in loops
        ]
        for request in resubmitted:
            second.submit(request)
        after = second.drain()
        assert second.stats.fused_runs == 0      # everything replayed
        assert second.stats.store_hits == len(requests)
        for old, new in zip(requests, resubmitted):
            assert (
                after[new.request_id].solution.tobytes()
                == before[old.request_id].solution.tobytes()
            )
        second.store.journal.close()

    def test_restart_after_drain_and_close_keeps_journaling(
        self, small_geometry, harmonic_loops, fake_clock, tmp_path
    ):
        # drain_and_close() closes the journal; start() reopens intake, and
        # the next claim must reach the file again.
        path = tmp_path / "requests.wal"
        first, second = (
            SolveRequest.create(small_geometry, loop, max_iterations=40)
            for loop in harmonic_loops(2, seed=33)
        )
        with Server(journal=path, async_workers=1, cache=None) as server:
            server.submit_async(first).result(timeout=60)
            server.drain_and_close()
            server.start()
            server.submit_async(second).result(timeout=60)
            server.drain_and_close()
        recovered = _server(fake_clock, journal=path)
        assert recovered.recovery.completed == 2
        recovered.store.journal.close()

    def test_torn_write_orphans_claim_then_recovers_exactly_once(
        self, small_geometry, harmonic_loops, fake_clock, tmp_path
    ):
        path = tmp_path / "requests.wal"
        loop = harmonic_loops(1, seed=32)[0]
        # Journal call order for one request: claim (#0), complete (#1) —
        # the tear lands on the completion, as if the process died while
        # persisting the solved result.
        faults = FaultInjector(
            [FaultSpec(site=JOURNAL_WRITE, index=1, kind=TORN)],
            sleep=fake_clock.advance,
        )
        crashed = _server(fake_clock, faults=faults, journal=path)
        request = SolveRequest.create(small_geometry, loop, max_iterations=40)
        crashed.submit(request)
        future = crashed.future(request.request_id)
        assert crashed.drain() == {}
        error = future.exception()
        assert isinstance(error, RetryExhaustedError)
        assert isinstance(error.__cause__, InjectedFault)  # the torn write

        # Recovery sees the claim only: the key is orphaned, reclaimable.
        recovered = _server(fake_clock, journal=path)
        assert recovered.recovery.completed == 0
        assert recovered.recovery.orphaned != ()
        retry = SolveRequest.create(small_geometry, loop, max_iterations=40)
        recovered.submit(retry)
        results = recovered.drain()
        assert recovered.stats.fused_runs == 1  # solved exactly once more
        clean = _server(fake_clock)
        control = SolveRequest.create(small_geometry, loop, max_iterations=40)
        clean.submit(control)
        assert (
            results[retry.request_id].solution.tobytes()
            == clean.drain()[control.request_id].solution.tobytes()
        )
        crashed.store.journal.close()
        recovered.store.journal.close()
