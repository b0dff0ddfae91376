"""CircuitBreaker state machine, transition strings, and re-arm delays."""

from __future__ import annotations

from repro.common.clock import VirtualClock
from repro.reliability import CircuitBreaker, CircuitState, FailurePolicy


def make_breaker(clock=None, **policy_kwargs):
    policy_kwargs.setdefault("max_retries", 2)
    policy_kwargs.setdefault("jitter", 0.0)
    policy_kwargs.setdefault("probe_interval", 30.0)
    clock = clock or VirtualClock()
    return CircuitBreaker(FailurePolicy(**policy_kwargs), clock,
                          salt="n/k"), clock


class TestStateMachine:
    def test_starts_healthy_and_permissive(self):
        breaker, _ = make_breaker()
        assert breaker.state is CircuitState.HEALTHY
        assert breaker.allow_attempt() == (True, None)

    def test_failures_within_budget_mean_retrying(self):
        breaker, _ = make_breaker(max_retries=2)
        assert breaker.record_failure(RuntimeError("x")) is None
        assert breaker.state is CircuitState.RETRYING
        assert breaker.record_failure(RuntimeError("x")) is None
        assert breaker.consecutive_failures == 2
        assert breaker.allow_attempt() == (True, None)

    def test_exhausted_budget_opens_the_circuit(self):
        breaker, _ = make_breaker(max_retries=2)
        for _ in range(2):
            breaker.record_failure(RuntimeError("x"))
        assert breaker.record_failure(RuntimeError("boom")) == "open"
        assert breaker.state is CircuitState.QUARANTINED
        assert breaker.allow_attempt() == (False, None)

    def test_further_failures_while_quarantined_are_silent(self):
        breaker, _ = make_breaker(max_retries=0)
        assert breaker.record_failure(RuntimeError("x")) == "open"
        assert breaker.record_failure(RuntimeError("x")) is None

    def test_probe_due_promotes_to_half_open(self):
        breaker, clock = make_breaker(max_retries=0, probe_interval=30.0)
        breaker.record_failure(RuntimeError("x"))
        clock.advance_by(29.9)
        assert breaker.allow_attempt() == (False, None)
        clock.advance_by(0.2)
        assert breaker.allow_attempt() == (True, "half_open")
        assert breaker.state is CircuitState.HALF_OPEN

    def test_failed_probe_reopens(self):
        breaker, clock = make_breaker(max_retries=0, probe_interval=30.0)
        breaker.record_failure(RuntimeError("x"))
        clock.advance_by(31.0)
        breaker.allow_attempt()
        assert breaker.record_failure(RuntimeError("still down")) == "reopen"
        assert breaker.state is CircuitState.QUARANTINED
        # The probe timer re-armed from now, not from the first quarantine.
        assert breaker.reschedule_delay() == 30.0

    def test_successful_probe_closes(self):
        breaker, clock = make_breaker(max_retries=0, probe_interval=30.0)
        breaker.record_failure(RuntimeError("x"))
        clock.advance_by(31.0)
        breaker.allow_attempt()
        assert breaker.record_success() == "close"
        assert breaker.state is CircuitState.HEALTHY
        assert breaker.consecutive_failures == 0

    def test_retrying_recovery_is_silent(self):
        breaker, _ = make_breaker(max_retries=2)
        breaker.record_failure(RuntimeError("x"))
        assert breaker.record_success() is None  # no gauge movement
        assert breaker.state is CircuitState.HEALTHY


class TestRescheduleDelay:
    def test_none_while_healthy_keeps_the_period_grid(self):
        breaker, _ = make_breaker()
        assert breaker.reschedule_delay() is None

    def test_backoff_while_retrying(self):
        breaker, _ = make_breaker(max_retries=3, backoff_base=5.0,
                                  backoff_factor=2.0)
        breaker.record_failure(RuntimeError("x"))
        assert breaker.reschedule_delay() == 5.0
        breaker.record_failure(RuntimeError("x"))
        assert breaker.reschedule_delay() == 10.0

    def test_quarantine_rest_counts_down(self):
        breaker, clock = make_breaker(max_retries=0, probe_interval=30.0)
        breaker.record_failure(RuntimeError("x"))
        assert breaker.reschedule_delay() == 30.0
        clock.advance_by(12.0)
        assert breaker.reschedule_delay() == 18.0
        clock.advance_by(100.0)
        assert breaker.reschedule_delay() == 0.0


class TestDescribe:
    def test_snapshot_fields(self):
        breaker, _ = make_breaker(max_retries=0)
        breaker.record_failure(ValueError("sensor exploded"))
        data = breaker.describe()
        assert data["state"] == "quarantined"
        assert data["failures"] == 1
        assert data["opens"] == 1
        assert data["last_error"].startswith("ValueError: sensor exploded")
        assert "next_probe_at" in data and "quarantined_at" in data

    def test_error_text_truncated(self):
        breaker, _ = make_breaker()
        breaker.record_failure(RuntimeError("y" * 500))
        assert len(breaker.describe()["last_error"]) <= 200
