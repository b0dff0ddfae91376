"""Property test: the RW lock's reentrancy bookkeeping under random nesting."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import LockUpgradeError
from repro.common.rwlock import ReentrantRWLock

# Random sequences of lock operations executed by a single thread.  The model
# tracks what should be held; the lock must agree and never deadlock.
ops = st.lists(st.sampled_from(["ar", "rr", "aw", "rw"]), max_size=40)


class _Events:
    def __init__(self):
        self.seen = []

    def on_acquire(self, lock, mode, nested, contended):
        self.seen.append(("acquire", mode, nested, contended))

    def on_release(self, lock, mode, released):
        self.seen.append(("release", mode, released))


def run_against_model(ops, observer=None):
    """Drive one lock through ``ops``, checking it against a depth-counting
    model after every step; with an ``observer`` (installed by the caller)
    the callbacks must tell the same story."""
    lock = ReentrantRWLock("prop")
    reads = writes = 0
    read_acquired = write_acquired = 0
    expected_events = []
    for op in ops:
        if op == "ar":
            lock.acquire_read()  # first, reentrant or downgrade: must succeed
            expected_events.append(
                ("acquire", "read", reads > 0 or writes > 0, False))
            reads += 1
            read_acquired += 1
        elif op == "rr":
            if reads > 0:
                lock.release_read()
                reads -= 1
                expected_events.append(
                    ("release", "read", reads == 0 and writes == 0))
            else:
                with pytest.raises(RuntimeError):
                    lock.release_read()
        elif op == "aw":
            if writes == 0 and reads > 0:
                with pytest.raises(LockUpgradeError):
                    lock.acquire_write()
            else:
                lock.acquire_write()
                expected_events.append(("acquire", "write", writes > 0, False))
                writes += 1
                write_acquired += 1
        elif op == "rw":
            if writes > 0:
                lock.release_write()
                writes -= 1
                expected_events.append(
                    ("release", "write", writes == 0 and reads == 0))
            else:
                with pytest.raises(RuntimeError):
                    lock.release_write()

        expected = "write" if writes else ("read" if reads else None)
        assert lock.held_by_current_thread() == expected

    # The lock kept exactly the model's depths: that many releases balance
    # it, and one more of either kind is refused.
    for _ in range(writes):
        lock.release_write()
    for _ in range(reads):
        lock.release_read()
    assert lock.held_by_current_thread() is None
    with pytest.raises(RuntimeError):
        lock.release_write()
    with pytest.raises(RuntimeError):
        lock.release_read()
    assert lock.stats.read_acquired == read_acquired
    assert lock.stats.write_acquired == write_acquired
    assert lock.stats.contended == 0 and lock.stats.wait_seconds == 0.0
    if observer is not None:
        assert observer.seen[:len(expected_events)] == expected_events


class TestSingleThreadModel:
    @given(ops=ops)
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_model(self, ops):
        run_against_model(ops)

    @given(ops=ops)
    @settings(max_examples=100, deadline=None)
    def test_observed_run_matches_reference_model(self, ops):
        """Same model through the observed (slow) bodies, plus the
        ``nested`` / ``released`` flags of every callback."""
        observer = _Events()
        ReentrantRWLock.install_observer(observer)
        try:
            run_against_model(ops, observer)
        finally:
            ReentrantRWLock.uninstall_observer()
