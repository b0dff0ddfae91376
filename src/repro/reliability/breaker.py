"""Per-handler circuit breaker: HEALTHY -> RETRYING -> QUARANTINED -> HALF_OPEN.

The breaker is the mutable runtime companion of a frozen
:class:`~repro.reliability.policy.FailurePolicy`.  It is deliberately
*passive*: it records outcomes and answers "may I attempt?", but never
sleeps, never schedules, and never emits telemetry.  The handler's attempt
path is the one caller that asks it; the handler translates the transition
strings it returns (``"open"``, ``"reopen"``, ``"half_open"``, ``"close"``)
into trace events
*outside* the breaker's lock, which keeps the lock a leaf in the repo's
lock hierarchy (generic ``_mutex`` region — no graph/node/item locks may be
taken inside it).

State machine::

    HEALTHY --failure--> RETRYING --(consecutive > max_retries)--> QUARANTINED
    RETRYING --success--> HEALTHY                     (silent: no close event)
    QUARANTINED --probe due--> HALF_OPEN --success--> HEALTHY        ("close")
    HALF_OPEN --failure--> QUARANTINED                              ("reopen")

The ``circuits_open`` gauge stays balanced because "open"/"close" are only
reported on entry to and exit from the quarantined family (QUARANTINED and
HALF_OPEN count as open); a failed probe reports "reopen", which re-arms the
probe timer without double-incrementing the gauge.
"""

from __future__ import annotations

import enum
import threading
from typing import TYPE_CHECKING, Any

from repro.reliability.policy import FailurePolicy

if TYPE_CHECKING:
    from repro.common.clock import Clock

__all__ = ["CircuitBreaker", "CircuitState"]


class CircuitState(enum.Enum):
    """Health of one handler's compute path."""

    HEALTHY = "healthy"
    #: Failing but still within the retry budget; refreshes continue on the
    #: backoff schedule.
    RETRYING = "retrying"
    #: Retry budget exhausted; attempts are blocked until the next probe is
    #: due and reads serve the last-good value (stale-while-failing).
    QUARANTINED = "quarantined"
    #: One probe attempt is in flight; its outcome closes or re-opens the
    #: circuit.
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Failure accounting and attempt gating for one handler.

    Thread-safe: every method takes the internal leaf mutex.  ``salt``
    de-synchronizes jittered backoff across handlers sharing a policy.
    """

    def __init__(self, policy: FailurePolicy, clock: "Clock",
                 salt: str = "") -> None:
        self.policy = policy
        self.clock = clock
        self.salt = salt
        self._mutex = threading.Lock()
        self._state = CircuitState.HEALTHY
        self._consecutive_failures = 0
        self._failure_count = 0
        self._success_count = 0
        self._open_count = 0
        self._last_error: str | None = None
        self._quarantined_at: float | None = None
        self._next_probe_at: float | None = None

    @property
    def state(self) -> CircuitState:
        with self._mutex:
            return self._state

    @property
    def consecutive_failures(self) -> int:
        with self._mutex:
            return self._consecutive_failures

    def allow_attempt(self) -> tuple[bool, str | None]:
        """May the caller attempt a compute right now?

        Returns ``(allowed, transition)``; ``transition`` is ``"half_open"``
        exactly when this call promoted a quarantined circuit into its probe
        attempt (the caller owns emitting the event).
        """
        with self._mutex:
            if self._state is CircuitState.QUARANTINED:
                now = self.clock.now()
                if self._next_probe_at is not None \
                        and now < self._next_probe_at:
                    return False, None
                self._state = CircuitState.HALF_OPEN
                return True, "half_open"
            return True, None

    def record_success(self) -> str | None:
        """Note a successful compute; returns ``"close"`` when this leaves
        the open family (QUARANTINED/HALF_OPEN), else ``None`` (a plain
        RETRYING -> HEALTHY recovery is silent)."""
        with self._mutex:
            was_open = self._state in (CircuitState.QUARANTINED,
                                       CircuitState.HALF_OPEN)
            self._state = CircuitState.HEALTHY
            self._consecutive_failures = 0
            self._success_count += 1
            self._quarantined_at = None
            self._next_probe_at = None
            return "close" if was_open else None

    def record_failure(self, error: BaseException) -> str | None:
        """Note a failed compute; returns ``"open"`` on first quarantine,
        ``"reopen"`` when a half-open probe failed, else ``None``."""
        with self._mutex:
            self._consecutive_failures += 1
            self._failure_count += 1
            self._last_error = f"{type(error).__name__}: {error}"[:200]
            now = self.clock.now()
            failed_probe = self._state is CircuitState.HALF_OPEN
            if failed_probe \
                    or self._consecutive_failures > self.policy.max_retries:
                already_open = self._state is CircuitState.QUARANTINED
                self._state = CircuitState.QUARANTINED
                self._next_probe_at = now + self.policy.probe_interval
                if self._quarantined_at is None:
                    self._quarantined_at = now
                if already_open:
                    return None
                self._open_count += 1
                return "reopen" if failed_probe else "open"
            self._state = CircuitState.RETRYING
            return None

    def reschedule_delay(self) -> float | None:
        """Delay the periodic scheduler should re-arm with (the periodic
        retry *is* the re-arm): the jittered backoff while retrying, the
        remaining quarantine rest before the next probe while quarantined,
        and ``None`` while healthy — the scheduler then keeps its drift-free
        ``deadline + period`` grid exactly as without a policy."""
        with self._mutex:
            if self._state is CircuitState.RETRYING:
                return self.policy.backoff_delay(
                    self._consecutive_failures, self.salt)
            if self._state is CircuitState.QUARANTINED:
                if self._next_probe_at is None:
                    return self.policy.probe_interval
                return max(self._next_probe_at - self.clock.now(), 0.0)
            return None

    def describe(self) -> dict[str, Any]:
        """Introspection snapshot for ``describe_system()`` health views."""
        with self._mutex:
            data: dict[str, Any] = {
                "state": self._state.value,
                "consecutive_failures": self._consecutive_failures,
                "failures": self._failure_count,
                "successes": self._success_count,
                "opens": self._open_count,
            }
            if self._last_error is not None:
                data["last_error"] = self._last_error
            if self._quarantined_at is not None:
                data["quarantined_at"] = self._quarantined_at
            if self._next_probe_at is not None:
                data["next_probe_at"] = self._next_probe_at
            return data
