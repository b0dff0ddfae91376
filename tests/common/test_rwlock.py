"""Tests for the reentrant read-write lock."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.common.errors import LockUpgradeError
from repro.common.rwlock import LockStats, ReentrantRWLock


class TestSingleThread:
    def test_read_context_manager(self):
        lock = ReentrantRWLock("t")
        with lock.read():
            assert lock.held_by_current_thread() == "read"
        assert lock.held_by_current_thread() is None

    def test_write_context_manager(self):
        lock = ReentrantRWLock("t")
        with lock.write():
            assert lock.held_by_current_thread() == "write"
        assert lock.held_by_current_thread() is None

    def test_reentrant_read(self):
        lock = ReentrantRWLock()
        with lock.read():
            with lock.read():
                assert lock.held_by_current_thread() == "read"
            assert lock.held_by_current_thread() == "read"

    def test_reentrant_write(self):
        lock = ReentrantRWLock()
        with lock.write():
            with lock.write():
                assert lock.held_by_current_thread() == "write"
            assert lock.held_by_current_thread() == "write"

    def test_downgrade_read_inside_write(self):
        lock = ReentrantRWLock()
        with lock.write():
            with lock.read():
                assert lock.held_by_current_thread() == "write"
        assert lock.held_by_current_thread() is None

    def test_write_then_release_keeps_inner_read(self):
        lock = ReentrantRWLock()
        lock.acquire_write()
        lock.acquire_read()
        lock.release_write()
        assert lock.held_by_current_thread() == "read"
        lock.release_read()
        assert lock.held_by_current_thread() is None

    def test_upgrade_rejected(self):
        lock = ReentrantRWLock("metadata")
        with lock.read():
            with pytest.raises(LockUpgradeError):
                lock.acquire_write()
        # The read lock must still be released cleanly.
        assert lock.held_by_current_thread() is None

    def test_release_without_acquire_raises(self):
        lock = ReentrantRWLock()
        with pytest.raises(RuntimeError):
            lock.release_read()
        with pytest.raises(RuntimeError):
            lock.release_write()

    def test_stats_counted(self):
        lock = ReentrantRWLock()
        with lock.read():
            pass
        with lock.write():
            pass
        assert lock.stats.read_acquired == 1
        assert lock.stats.write_acquired == 1
        assert lock.stats.read_contended == 0
        assert lock.stats.write_contended == 0


class TestMultiThread:
    def test_concurrent_readers_allowed(self):
        lock = ReentrantRWLock()
        inside = threading.Barrier(3, timeout=5.0)

        def reader():
            with lock.read():
                inside.wait()  # all three readers simultaneously inside

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5.0)
        assert all(not t.is_alive() for t in threads)

    def test_writer_excludes_readers(self):
        lock = ReentrantRWLock()
        events = []
        writer_in = threading.Event()

        def writer():
            with lock.write():
                writer_in.set()
                time.sleep(0.05)
                events.append("write-done")

        def reader():
            writer_in.wait(timeout=5.0)
            with lock.read():
                events.append("read-done")

        tw = threading.Thread(target=writer)
        tr = threading.Thread(target=reader)
        tw.start()
        tr.start()
        tw.join(timeout=5.0)
        tr.join(timeout=5.0)
        assert events == ["write-done", "read-done"]

    def test_writer_preference_blocks_new_readers(self):
        lock = ReentrantRWLock()
        reader_in = threading.Event()
        release_reader = threading.Event()
        order = []

        def long_reader():
            with lock.read():
                reader_in.set()
                release_reader.wait(timeout=5.0)

        def writer():
            with lock.write():
                order.append("writer")

        def late_reader():
            with lock.read():
                order.append("late-reader")

        t1 = threading.Thread(target=long_reader)
        t1.start()
        reader_in.wait(timeout=5.0)
        t2 = threading.Thread(target=writer)
        t2.start()
        time.sleep(0.05)  # let the writer start waiting
        t3 = threading.Thread(target=late_reader)
        t3.start()
        time.sleep(0.05)
        release_reader.set()
        for t in (t1, t2, t3):
            t.join(timeout=5.0)
        assert order[0] == "writer"  # late reader queued behind the writer

    def test_write_mutual_exclusion_counter(self):
        lock = ReentrantRWLock()
        counter = {"value": 0}

        def bump():
            for _ in range(200):
                with lock.write():
                    current = counter["value"]
                    counter["value"] = current + 1

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert counter["value"] == 800

    def test_acquire_read_timeout(self):
        lock = ReentrantRWLock()
        acquired = threading.Event()
        release = threading.Event()

        def writer():
            with lock.write():
                acquired.set()
                release.wait(timeout=5.0)

        t = threading.Thread(target=writer)
        t.start()
        acquired.wait(timeout=5.0)
        assert lock.acquire_read(timeout=0.05) is False
        release.set()
        t.join(timeout=5.0)

    def test_contention_is_counted(self):
        lock = ReentrantRWLock()
        acquired = threading.Event()
        release = threading.Event()

        def writer():
            with lock.write():
                acquired.set()
                release.wait(timeout=5.0)

        t = threading.Thread(target=writer)
        t.start()
        acquired.wait(timeout=5.0)

        def reader():
            with lock.read():
                pass

        tr = threading.Thread(target=reader)
        tr.start()
        time.sleep(0.05)
        release.set()
        t.join(timeout=5.0)
        tr.join(timeout=5.0)
        assert lock.stats.read_contended >= 1


class TestGuards:
    """``read()`` / ``write()`` hand out stateless guards: the depths live in
    the lock, so one guard serves every nesting level."""

    def test_guard_is_reused(self):
        lock = ReentrantRWLock()
        assert lock.read() is lock.read()
        assert lock.write() is lock.write()
        assert lock.read() is not lock.write()

    def test_guards_nest_across_modes(self):
        lock = ReentrantRWLock()
        with lock.write():
            with lock.read():
                with lock.write():
                    assert lock.held_by_current_thread() == "write"
                assert lock.held_by_current_thread() == "write"
            assert lock.held_by_current_thread() == "write"
        assert lock.held_by_current_thread() is None
        assert lock.stats.write_acquired == 2
        assert lock.stats.read_acquired == 1

    def test_exception_releases_exactly_one_level(self):
        lock = ReentrantRWLock()
        with lock.write():
            with lock.read():
                with pytest.raises(ValueError):
                    with lock.read():
                        raise ValueError("boom")
                # The inner read level is gone, the outer one is not.
                lock.release_read()
                with pytest.raises(RuntimeError):
                    lock.release_read()
                lock.acquire_read()
            with pytest.raises(ValueError):
                with lock.write():
                    raise ValueError("boom")
            assert lock.held_by_current_thread() == "write"
        assert lock.held_by_current_thread() is None
        with pytest.raises(RuntimeError):
            lock.release_write()


class TestWriterQueue:
    """What happens around a *waiting* writer: new readers queue behind it
    (no fast path), holders may still re-enter, and a writer that gives up
    wakes the readers it was holding back."""

    def _reader_then_waiting_writer(self, lock, writer_timeout):
        reader_in = threading.Event()
        release_reader = threading.Event()
        writer_result = []

        def long_reader():
            with lock.read():
                reader_in.set()
                with lock.read():  # re-entry is granted despite the writer
                    pass
                release_reader.wait(timeout=10.0)

        def writer():
            granted = lock.acquire_write(timeout=writer_timeout)
            writer_result.append(granted)
            if granted:
                lock.release_write()

        reader = threading.Thread(target=long_reader, daemon=True)
        reader.start()
        assert reader_in.wait(timeout=5.0)
        waiting = threading.Thread(target=writer, daemon=True)
        waiting.start()
        deadline = time.monotonic() + 5.0
        while lock._waiting_writers == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert lock._waiting_writers == 1
        return reader, waiting, release_reader, writer_result

    def test_new_reader_queues_behind_waiting_writer(self):
        lock = ReentrantRWLock()
        reader, waiting, release_reader, writer_result = \
            self._reader_then_waiting_writer(lock, writer_timeout=5.0)
        try:
            # Only a reader holds the lock, yet a third thread is not let in.
            assert lock.acquire_read(timeout=0.05) is False
            assert lock.stats.read_contended == 0
            assert lock.stats.read_wait_seconds >= 0.04
        finally:
            release_reader.set()
            reader.join(timeout=5.0)
            waiting.join(timeout=5.0)
        assert writer_result == [True]
        assert lock.stats.write_contended == 1

    def test_timed_out_writer_wakes_queued_readers(self):
        lock = ReentrantRWLock()
        reader, waiting, release_reader, writer_result = \
            self._reader_then_waiting_writer(lock, writer_timeout=0.2)
        late_reader_in = threading.Event()

        def late_reader():
            if lock.acquire_read(timeout=5.0):
                late_reader_in.set()
                lock.release_read()

        late = threading.Thread(target=late_reader, daemon=True)
        late.start()
        try:
            # The first reader is still inside: the late one must get in as
            # soon as the writer gives up, not when that reader leaves.
            assert late_reader_in.wait(timeout=2.0)
            assert not release_reader.is_set()
        finally:
            release_reader.set()
            for thread in (reader, waiting, late):
                thread.join(timeout=5.0)
        assert writer_result == [False]
        assert lock.stats.read_contended == 1


class TestFastPathStress:
    @pytest.mark.stress
    def test_mixed_threads_keep_exclusion_and_counters(self):
        """More threads than cores, a shortened switch interval, every kind
        of acquisition: a lost update in the mutex-guarded state would break
        exclusion, the per-thread depths or the acquisition counters."""
        lock = ReentrantRWLock()
        shared = {"a": 0, "b": 0}
        torn = []
        counts = {"read": 0, "write": 0, "timed_out": 0}
        counts_mutex = threading.Lock()
        stop_at = time.monotonic() + 1.0

        def worker(index):
            reads = writes = timed_out = 0
            step = index
            while time.monotonic() < stop_at:
                step += 1
                if step % 4 == 0:
                    with lock.write():
                        shared["a"] += 1
                        with lock.read():      # downgrade read
                            with lock.write():  # write re-entry
                                shared["b"] += 1
                    reads += 1
                    writes += 2
                elif step % 7 == 0:
                    if lock.acquire_write(timeout=0.0005):
                        shared["a"] += 1
                        shared["b"] += 1
                        lock.release_write()
                        writes += 1
                    else:
                        timed_out += 1
                else:
                    with lock.read():
                        with lock.read():
                            if shared["a"] != shared["b"]:
                                torn.append((shared["a"], shared["b"]))
                    reads += 2
            with counts_mutex:
                counts["read"] += reads
                counts["write"] += writes
                counts["timed_out"] += timed_out

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,), daemon=True)
                       for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert all(not thread.is_alive() for thread in threads)
        assert torn == []
        assert shared["a"] == shared["b"] > 0
        assert lock.stats.read_acquired == counts["read"]
        assert lock.stats.write_acquired == counts["write"]
        assert lock.held_by_current_thread() is None
        assert not lock._readers and lock._writer is None
        assert lock._waiters == 0 and lock._waiting_writers == 0


class TestTimeoutDeadline:
    """``timeout`` is a total monotonic deadline, not a per-wait budget:
    spurious or irrelevant condition wakeups must not extend it."""

    def _holding_writer(self, lock):
        acquired = threading.Event()
        release = threading.Event()

        def writer():
            with lock.write():
                acquired.set()
                release.wait(timeout=10.0)

        t = threading.Thread(target=writer, daemon=True)
        t.start()
        assert acquired.wait(timeout=5.0)
        return release, t

    def _spurious_wakeups(self, lock, stop):
        """Hammer the lock's condition so every wait round wakes up early.

        The condition is built over ``lock._mutex`` by the first waiter, so
        until then there is nobody to wake.
        """

        def notifier():
            while not stop.is_set():
                with lock._mutex:
                    if lock._cond is not None:
                        lock._cond.notify_all()
                time.sleep(0.005)

        t = threading.Thread(target=notifier, daemon=True)
        t.start()
        return t

    def test_read_timeout_bounded_despite_wakeups(self):
        lock = ReentrantRWLock()
        release, writer = self._holding_writer(lock)
        stop = threading.Event()
        notifier = self._spurious_wakeups(lock, stop)
        try:
            start = time.monotonic()
            assert lock.acquire_read(timeout=0.1) is False
            elapsed = time.monotonic() - start
            # Pre-fix, each of the ~20 wakeups restarted the full 0.1s wait,
            # stretching the call to ~2s (unboundedly, in general).
            assert elapsed < 1.0
        finally:
            stop.set()
            release.set()
            writer.join(timeout=5.0)
            notifier.join(timeout=5.0)

    def test_write_timeout_bounded_despite_wakeups(self):
        lock = ReentrantRWLock()
        acquired = threading.Event()
        release = threading.Event()

        def reader():
            with lock.read():
                acquired.set()
                release.wait(timeout=10.0)

        t = threading.Thread(target=reader, daemon=True)
        t.start()
        assert acquired.wait(timeout=5.0)
        stop = threading.Event()
        notifier = self._spurious_wakeups(lock, stop)
        try:
            start = time.monotonic()
            assert lock.acquire_write(timeout=0.1) is False
            elapsed = time.monotonic() - start
            assert elapsed < 1.0
        finally:
            stop.set()
            release.set()
            t.join(timeout=5.0)
            notifier.join(timeout=5.0)

    def test_timed_out_writer_leaves_lock_usable(self):
        lock = ReentrantRWLock()
        release, writer = self._holding_writer(lock)
        assert lock.acquire_write(timeout=0.05) is False
        release.set()
        writer.join(timeout=5.0)
        with lock.write():
            assert lock.held_by_current_thread() == "write"


class _RecordingObserver:
    """Collects every observer callback as a comparable tuple."""

    def __init__(self):
        self.events = []

    def on_acquire(self, lock, mode, nested, contended):
        self.events.append(("acquire", lock.name, mode, nested, contended))

    def on_release(self, lock, mode, released):
        self.events.append(("release", lock.name, mode, released))


@pytest.fixture
def observer():
    obs = _RecordingObserver()
    ReentrantRWLock.install_observer(obs)
    yield obs
    ReentrantRWLock.uninstall_observer()


class TestObserverHook:
    def test_install_conflicting_observer_raises(self, observer):
        with pytest.raises(RuntimeError):
            ReentrantRWLock.install_observer(_RecordingObserver())
        # Re-installing the same observer is a no-op, not an error.
        ReentrantRWLock.install_observer(observer)

    def test_uninstall_is_idempotent(self):
        ReentrantRWLock.uninstall_observer()
        ReentrantRWLock.uninstall_observer()
        assert ReentrantRWLock.observer is None

    def test_read_acquire_release_events(self, observer):
        lock = ReentrantRWLock("t")
        with lock.read():
            pass
        assert observer.events == [
            ("acquire", "t", "read", False, False),
            ("release", "t", "read", True),
        ]

    def test_nested_read_flagged_and_release_counted_once(self, observer):
        lock = ReentrantRWLock("t")
        with lock.read():
            with lock.read():
                pass
        assert observer.events == [
            ("acquire", "t", "read", False, False),
            ("acquire", "t", "read", True, False),
            ("release", "t", "read", False),  # inner: still held
            ("release", "t", "read", True),   # outer: fully released
        ]

    def test_write_reentrancy_flags(self, observer):
        lock = ReentrantRWLock("t")
        with lock.write():
            with lock.write():
                pass
        assert observer.events == [
            ("acquire", "t", "write", False, False),
            ("acquire", "t", "write", True, False),
            ("release", "t", "write", False),
            ("release", "t", "write", True),
        ]

    def test_downgrade_keeps_thread_in_lock(self, observer):
        lock = ReentrantRWLock("t")
        lock.acquire_write()
        lock.acquire_read()
        lock.release_write()
        # The write release downgrades to the still-held read: not released.
        assert observer.events[-1] == ("release", "t", "write", False)
        lock.release_read()
        assert observer.events[-1] == ("release", "t", "read", True)

    def test_timed_out_acquire_emits_no_event(self, observer):
        lock = ReentrantRWLock("t")
        acquired = threading.Event()
        release = threading.Event()

        def writer():
            with lock.write():
                acquired.set()
                release.wait(timeout=5.0)

        t = threading.Thread(target=writer)
        t.start()
        acquired.wait(timeout=5.0)
        before = list(observer.events)
        assert lock.acquire_read(timeout=0.05) is False
        assert observer.events == before
        release.set()
        t.join(timeout=5.0)

    def test_contended_flag_reported(self, observer):
        lock = ReentrantRWLock("t")
        acquired = threading.Event()
        release = threading.Event()

        def writer():
            with lock.write():
                acquired.set()
                release.wait(timeout=5.0)

        t = threading.Thread(target=writer)
        t.start()
        acquired.wait(timeout=5.0)

        def reader():
            with lock.read():
                pass

        tr = threading.Thread(target=reader)
        tr.start()
        time.sleep(0.05)
        release.set()
        t.join(timeout=5.0)
        tr.join(timeout=5.0)
        assert ("acquire", "t", "read", False, True) in observer.events


class TestObserverParity:
    """The observer only watches: one scripted run must produce the same
    callbacks and the same counters whether the observer was there from the
    start, arrived mid-run (the holds taken before it went through the fast
    path) or never came."""

    EXPECTED = [
        (0, "acquire", "read", False, False),
        (1, "acquire", "read", True, False),    # nested read
        (2, "release", "read", False),
        (3, "release", "read", True),
        (4, "acquire", "write", False, False),
        (5, "acquire", "write", True, False),   # write re-entry
        (6, "release", "write", False),
        (7, "acquire", "read", True, False),    # read inside write
        (8, "release", "write", False),         # downgraded: still a reader
        (9, "release", "read", True),
        (10, "acquire", "read", False, True),   # contended
        (11, "release", "read", True),
        # step 12, the timed-out write, reports nothing
    ]

    class _ByStep:
        """Records the scripting thread's callbacks under the current step."""

        def __init__(self):
            self.step = None
            self.thread = threading.get_ident()
            self.events = []

        def on_acquire(self, lock, mode, nested, contended):
            if threading.get_ident() == self.thread:
                self.events.append((self.step, "acquire", mode, nested, contended))

        def on_release(self, lock, mode, released):
            if threading.get_ident() == self.thread:
                self.events.append((self.step, "release", mode, released))

    @staticmethod
    def _held_elsewhere(lock, hold_for):
        """Another thread takes the write lock and keeps it ``hold_for`` s."""
        taken = threading.Event()

        def holder():
            with lock.write():
                taken.set()
                time.sleep(hold_for)

        thread = threading.Thread(target=holder, daemon=True)
        thread.start()
        assert taken.wait(timeout=5.0)
        return thread

    def _script(self, lock):
        def contended_read():
            holder = self._held_elsewhere(lock, 0.1)
            assert lock.acquire_read(timeout=5.0) is True
            holder.join(timeout=5.0)

        def timed_out_write():
            holder = self._held_elsewhere(lock, 0.2)
            assert lock.acquire_write(timeout=0.05) is False
            holder.join(timeout=5.0)

        return [
            lock.acquire_read, lock.acquire_read,
            lock.release_read, lock.release_read,
            lock.acquire_write, lock.acquire_write, lock.release_write,
            lock.acquire_read, lock.release_write, lock.release_read,
            contended_read, lock.release_read,
            timed_out_write,
        ]

    def _run(self, install_at):
        lock = ReentrantRWLock("parity")
        observer = self._ByStep()
        try:
            for step, action in enumerate(self._script(lock)):
                if step == install_at:
                    ReentrantRWLock.install_observer(observer)
                observer.step = step
                action()
        finally:
            ReentrantRWLock.uninstall_observer()
        assert lock.held_by_current_thread() is None
        return observer.events, lock.stats

    @pytest.mark.parametrize("install_at", [0, 1, 5, 8, None])
    def test_same_events_and_counters(self, install_at):
        events, stats = self._run(install_at)
        if install_at is None:
            assert events == []
        else:
            assert events == [e for e in self.EXPECTED if e[0] >= install_at]
        # Two of the four write acquisitions are the helper threads'.
        assert (stats.read_acquired, stats.write_acquired,
                stats.read_contended, stats.write_contended) == (4, 4, 1, 0)
        assert stats.read_wait_seconds > 0.0
        assert stats.write_wait_seconds >= 0.04


class TestWaitSeconds:
    def test_uncontended_acquisitions_record_no_wait(self):
        lock = ReentrantRWLock()
        with lock.read():
            pass
        with lock.write():
            pass
        assert lock.stats.read_wait_seconds == 0.0
        assert lock.stats.write_wait_seconds == 0.0

    def test_contended_read_accumulates_wait(self):
        lock = ReentrantRWLock()
        acquired = threading.Event()
        release = threading.Event()

        def writer():
            with lock.write():
                acquired.set()
                release.wait(timeout=5.0)

        t = threading.Thread(target=writer)
        t.start()
        acquired.wait(timeout=5.0)

        def reader():
            with lock.read():
                pass

        tr = threading.Thread(target=reader)
        tr.start()
        time.sleep(0.05)
        release.set()
        t.join(timeout=5.0)
        tr.join(timeout=5.0)
        assert lock.stats.read_wait_seconds > 0.0

    def test_timed_out_wait_still_counted(self):
        lock = ReentrantRWLock()
        acquired = threading.Event()
        release = threading.Event()

        def writer():
            with lock.write():
                acquired.set()
                release.wait(timeout=5.0)

        t = threading.Thread(target=writer)
        t.start()
        acquired.wait(timeout=5.0)
        assert lock.acquire_write(timeout=0.05) is False
        assert lock.stats.write_wait_seconds >= 0.04
        release.set()
        t.join(timeout=5.0)


class TestLockStats:
    def test_addition(self):
        a = LockStats(read_acquired=1, write_acquired=2, read_contended=3, write_contended=4)
        b = LockStats(read_acquired=10, write_acquired=20, read_contended=30, write_contended=40)
        total = a + b
        assert total.read_acquired == 11
        assert total.write_acquired == 22
        assert total.read_contended == 33
        assert total.write_contended == 44

    def test_snapshot_is_independent(self):
        a = LockStats(read_acquired=1)
        snap = a.snapshot()
        a.read_acquired = 99
        assert snap.read_acquired == 1

    def test_addition_includes_wait_seconds(self):
        a = LockStats(read_wait_seconds=0.25, write_wait_seconds=1.0)
        b = LockStats(read_wait_seconds=0.75, write_wait_seconds=0.5)
        total = a + b
        assert total.read_wait_seconds == 1.0
        assert total.write_wait_seconds == 1.5

    def test_derived_properties(self):
        stats = LockStats(read_contended=2, write_contended=3,
                          read_wait_seconds=0.25, write_wait_seconds=0.5)
        assert stats.contended == 5
        assert stats.wait_seconds == 0.75

    def test_to_dict_round_trips_every_counter(self):
        stats = LockStats(read_acquired=1, write_acquired=2,
                          read_contended=3, write_contended=4,
                          read_wait_seconds=0.5, write_wait_seconds=0.25)
        assert stats.to_dict() == {
            "read_acquired": 1, "write_acquired": 2,
            "read_contended": 3, "write_contended": 4,
            "read_wait_seconds": 0.5, "write_wait_seconds": 0.25,
        }
