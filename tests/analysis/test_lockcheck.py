"""Static lock pass tests: each per-function LK code on a minimal fixture,
the suppression comment, the false-positive guards, and the acceptance gate
that the trees CI lints carry no finding at all."""

from __future__ import annotations

import os
import textwrap

from repro.analysis import Severity, lint_paths, lint_source

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..", "..")
SELF_LINT_TREES = [os.path.join(REPO_ROOT, "src", "repro"),
                   os.path.join(REPO_ROOT, "examples"),
                   os.path.join(REPO_ROOT, "benchmarks")]


def lint(snippet: str):
    return lint_source(textwrap.dedent(snippet), "fixture.py")


def codes(findings):
    return [f.code for f in findings]


class TestHierarchyOrder:
    def test_item_before_node_lk001(self):
        findings = lint("""
            class R:
                def bad(self):
                    with self.handler._lock.write():
                        with self.node_lock.read():
                            pass
        """)
        assert codes(findings) == ["LK001"]
        finding = findings[0]
        assert finding.severity is Severity.ERROR
        assert finding.file == "fixture.py"
        assert finding.line == 5  # the offending acquisition, with file:line
        assert finding.scope == "R.bad"
        assert "item-level" in finding.message
        assert "node-level" in finding.message

    def test_node_before_graph_lk001(self):
        findings = lint("""
            def bad(self):
                with self.node_lock.write():
                    with self.structure_lock.write():
                        pass
        """)
        assert codes(findings) == ["LK001"]

    def test_correct_order_is_clean(self):
        findings = lint("""
            def good(self):
                with self.structure_lock.write():
                    with self.node_lock.write():
                        with self.handler._lock.write():
                            pass
        """)
        assert findings == []

    def test_nested_function_resets_context(self):
        """A nested def's body does not run under the enclosing lock."""
        findings = lint("""
            def outer(self):
                with self.handler._lock.write():
                    def callback():
                        with self.node_lock.read():
                            pass
                    return callback
        """)
        assert findings == []


class TestBlockingCalls:
    def test_join_sleep_queue_get_lk002(self):
        findings = lint("""
            import time
            def bad(self):
                with self.node_lock.write():
                    self.worker.join()
                    time.sleep(1)
                    item = self.task_queue.get()
        """)
        assert codes(findings) == ["LK002", "LK002", "LK002"]
        assert all(f.severity is Severity.WARNING for f in findings)

    def test_str_join_and_dict_get_not_flagged(self):
        findings = lint("""
            def good(self):
                with self.node_lock.write():
                    name = ", ".join(["a", "b"])
                    parts = sep.join(pieces)
                    value = mapping.get("key")
        """)
        assert findings == []

    def test_blocking_in_non_lock_with_item_lk002(self):
        # A non-lock ``with`` item's expression runs under the locks already
        # held, so a blocking call inside it is as bad as one in the body.
        findings = lint("""
            import contextlib
            def bad(self):
                with self._lock.write():
                    with contextlib.closing(self.sock.recv(1)):
                        pass
        """)
        assert codes(findings) == ["LK002"]
        assert "self.sock.recv" in findings[0].message

    def test_blocking_outside_lock_is_fine(self):
        findings = lint("""
            import time
            def good(self):
                time.sleep(1)
                self.worker.join()
        """)
        assert findings == []


class TestBlockingCatalogue:
    """The extended catalogue: sockets, synchronization waits, subprocesses
    and selectors — shared verbatim with the LK006 may-block summaries."""

    def test_socket_recv_any_receiver_lk002(self):
        findings = lint("""
            def bad(self, stream):
                with self.node_lock.write():
                    data = stream.recv(4096)
                    more = stream.recv_into(buf)
                    packet, addr = stream.recvfrom(512)
        """)
        assert codes(findings) == ["LK002", "LK002", "LK002"]

    def test_socket_named_receiver_connect_accept_lk002(self):
        findings = lint("""
            def bad(self, sock):
                with self.node_lock.write():
                    sock.connect(("host", 80))
                    conn, addr = sock.accept()
                    conn.sendall(b"x")
        """)
        assert codes(findings) == ["LK002", "LK002", "LK002"]

    def test_connect_on_non_socket_receiver_not_flagged(self):
        findings = lint("""
            def good(self, signal):
                with self.node_lock.write():
                    signal.connect(self.handler)
        """)
        assert findings == []

    def test_condition_and_event_wait_lk002(self):
        findings = lint("""
            def bad(self, cond, done):
                with self.node_lock.write():
                    cond.wait(timeout=1.0)
                    done.wait()
        """)
        assert codes(findings) == ["LK002", "LK002"]

    def test_subprocess_calls_lk002(self):
        findings = lint("""
            import subprocess
            def bad(self):
                with self.node_lock.write():
                    subprocess.run(["ls"])
                    subprocess.check_output(["ls"])
        """)
        assert codes(findings) == ["LK002", "LK002"]

    def test_select_lk002(self):
        findings = lint("""
            import select
            def bad(self, selector):
                with self.node_lock.write():
                    select.select([r], [], [], 1.0)
                    events = selector.select(timeout=0.5)
        """)
        assert codes(findings) == ["LK002", "LK002"]

    def test_catalogue_lists_every_family(self):
        from repro.analysis.lockcheck import BLOCKING_CATALOGUE
        assert set(BLOCKING_CATALOGUE) == {
            "sleep", "join", "queue-get", "wait",
            "socket", "subprocess", "select",
        }


class TestUpgrade:
    def test_write_under_read_lk003(self):
        findings = lint("""
            def bad(self):
                with self.node_lock.read():
                    with self.node_lock.write():
                        pass
        """)
        assert codes(findings) == ["LK003"]
        assert "upgrade" in findings[0].message

    def test_write_then_read_downgrade_is_fine(self):
        findings = lint("""
            def good(self):
                with self.node_lock.write():
                    with self.node_lock.read():
                        pass
        """)
        assert findings == []

    def test_different_locks_not_confused(self):
        findings = lint("""
            def good(self):
                with self.structure_lock.read():
                    with self.node_lock.write():
                        pass
        """)
        assert findings == []


class TestSwallowedExceptions:
    def test_broad_except_pass_under_lock_lk004(self):
        findings = lint("""
            def bad(self):
                with self._mutex:
                    try:
                        risky()
                    except Exception:
                        pass
        """)
        assert codes(findings) == ["LK004"]

    def test_bare_except_under_rw_lock_lk004(self):
        findings = lint("""
            def bad(self):
                with self.node_lock.write():
                    try:
                        risky()
                    except:
                        ...
        """)
        assert codes(findings) == ["LK004"]

    def test_handled_except_is_fine(self):
        findings = lint("""
            def good(self):
                with self._mutex:
                    try:
                        risky()
                    except Exception:
                        log.exception("risky failed")
        """)
        assert findings == []

    def test_narrow_except_is_fine(self):
        findings = lint("""
            def good(self):
                with self._mutex:
                    try:
                        risky()
                    except KeyError:
                        pass
        """)
        assert findings == []

    def test_except_outside_lock_is_lk005_not_lk004(self):
        # No lock held, so LK004 stays silent — but a traceless swallow is
        # still LK005 (see tests/analysis/test_reliability_checks.py).
        findings = lint("""
            def good(self):
                try:
                    risky()
                except Exception:
                    pass
        """)
        assert codes(findings) == ["LK005"]


class TestSuppression:
    def test_ignore_comment_suppresses(self):
        findings = lint("""
            def tolerated(self):
                with self.handler._lock.write():
                    with self.node_lock.read():  # analysis: ignore[LK001]
                        pass
        """)
        assert findings == []

    def test_ignore_comment_is_code_specific(self):
        findings = lint("""
            def tolerated(self):
                with self.handler._lock.write():
                    with self.node_lock.read():  # analysis: ignore[LK003]
                        pass
        """)
        assert codes(findings) == ["LK001"]


class TestParseFailure:
    def test_syntax_error_reports_lk000(self):
        findings = lint_source("def broken(:\n", "broken.py")
        assert codes(findings) == ["LK000"]
        assert findings[0].file == "broken.py"


class TestSelfLint:
    def test_src_repro_has_no_errors_at_head(self):
        """Acceptance gate: the runtime, its examples and its benchmarks obey
        their own discipline — no finding at any severity, LK000-LK007 in
        one pass, over the trees CI lints."""
        findings = lint_paths(SELF_LINT_TREES)
        assert findings == [], "\n".join(str(f) for f in findings)
