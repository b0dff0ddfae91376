"""Static lock pass tests through call chains: LK006/LK007 across functions
and modules, the conservative resolution rules, suppression comments
(single- and multi-code), async-with lock regions, and the self-lint gate
over ``src/repro``.  Every fixture runs the whole pass, so the per-function
codes (LK001-LK005) show up beside the chain codes."""

from __future__ import annotations

import os
import textwrap

from repro.analysis import Severity
from repro.analysis.lockcheck import (
    iter_python_files,
    lint_paths,
    lint_sources,
    module_name_for,
)

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src", "repro")


def findings_of(**sources):
    return lint_sources({
        f"{name}.py": textwrap.dedent(text) for name, text in sources.items()
    })


def codes(findings):
    return sorted(f.code for f in findings)


class TestMayBlockChains:
    def test_lk006_one_hop(self):
        findings = findings_of(m="""
            import time

            def helper():
                time.sleep(0.5)

            def outer(self):
                with self.handler._lock.write():
                    helper()
        """)
        assert codes(findings) == ["LK006"]
        finding = findings[0]
        assert finding.severity is Severity.WARNING
        assert "helper" in finding.message
        assert "time.sleep" in finding.message

    def test_lk006_two_hops_with_full_path(self):
        findings = findings_of(m="""
            import time

            def inner():
                time.sleep(0.5)

            def middle():
                inner()

            def outer(self):
                with self.node_lock.read():
                    middle()
        """)
        assert codes(findings) == ["LK006"]
        path = findings[0].details["path"]
        # middle -> inner -> the blocking call itself.
        assert path[0]["function"] == "m.middle"
        assert path[1]["function"] == "m.inner"
        assert path[-1]["blocking"] == "time.sleep"

    def test_direct_blocking_left_to_lk002(self):
        # A blocking call directly under the lock is LK002; the chain
        # summaries must not repeat it as LK006.
        findings = findings_of(m="""
            import time

            def outer(self):
                with self.node_lock.read():
                    time.sleep(0.5)
        """)
        assert codes(findings) == ["LK002"]

    def test_call_outside_lock_is_clean(self):
        findings = findings_of(m="""
            import time

            def helper():
                time.sleep(0.5)

            def outer(self):
                helper()
        """)
        assert findings == []

    def test_recursion_converges(self):
        findings = findings_of(m="""
            import time

            def ping(n):
                if n:
                    pong(n - 1)

            def pong(n):
                time.sleep(0.01)
                ping(n)

            def outer(self):
                with self.node_lock.read():
                    ping(3)
        """)
        assert codes(findings) == ["LK006"]


class TestMayAcquireChains:
    def test_lk007_self_method_chain(self):
        findings = findings_of(m="""
            class Registry:
                def _register_globally(self):
                    with self.structure_lock.write():
                        pass

                def compute_under_item_lock(self):
                    with self._lock.write():
                        self._register_globally()
        """)
        assert codes(findings) == ["LK007"]
        finding = findings[0]
        assert finding.severity is Severity.ERROR
        assert "graph-level" in finding.message
        assert finding.details["acquires_level"] == "graph"
        assert finding.details["path"][-1]["acquires"] == "graph"

    def test_lk007_through_module_function(self):
        findings = findings_of(m="""
            def grab_graph(registry):
                with registry.structure_lock.write():
                    pass

            def bad(registry):
                with registry.node_lock.write():
                    grab_graph(registry)
        """)
        assert codes(findings) == ["LK007"]

    def test_same_or_later_level_is_clean(self):
        findings = findings_of(m="""
            def grab_item(handler):
                with handler._lock.write():
                    pass

            def fine(self, handler):
                with self.node_lock.write():
                    grab_item(handler)
        """)
        assert findings == []

    def test_lk007_across_modules_via_import(self):
        findings = findings_of(
            locks="""
                def rebuild(registry):
                    with registry.structure_lock.write():
                        pass
            """,
            user="""
                import locks

                def bad(self, registry):
                    with self.node_lock.write():
                        locks.rebuild(registry)
            """,
        )
        assert codes(findings) == ["LK007"]


class TestResolution:
    def test_ambiguous_method_name_not_resolved(self):
        findings = findings_of(m="""
            import time

            class A:
                def work(self):
                    time.sleep(0.5)

            class B:
                def work(self):
                    pass

            def outer(self, obj):
                with self.node_lock.read():
                    obj.work()
        """)
        # Two candidates named `work` — conservative resolution drops the
        # edge rather than guessing.
        assert findings == []

    def test_unique_method_name_resolved(self):
        findings = findings_of(m="""
            import time

            class A:
                def drain(self):
                    time.sleep(0.5)

            def outer(self, obj):
                with self.node_lock.read():
                    obj.drain()
        """)
        assert codes(findings) == ["LK006"]

    def test_from_import_resolved(self):
        findings = findings_of(
            util="""
                import time

                def pause():
                    time.sleep(0.5)
            """,
            user="""
                from util import pause

                def outer(self):
                    with self.node_lock.read():
                        pause()
            """,
        )
        assert codes(findings) == ["LK006"]

    def test_module_name_for(self):
        assert module_name_for(
            os.path.join("src", "repro", "common", "rwlock.py")
        ) == "repro.common.rwlock"
        assert module_name_for("standalone.py") == "standalone"


class TestSuppression:
    def test_single_code_suppression(self):
        findings = findings_of(m="""
            import time

            def helper():
                time.sleep(0.5)

            def outer(self):
                with self.node_lock.read():
                    helper()  # analysis: ignore[LK006]
        """)
        assert findings == []

    def test_multi_code_suppression_on_one_line(self):
        findings = findings_of(m="""
            import time

            def helper(self):
                time.sleep(0.5)
                with self.structure_lock.write():
                    pass

            def outer(self):
                with self._lock.write():
                    self.helper()  # analysis: ignore[LK006, LK007]
        """)
        assert findings == []

    def test_suppression_is_code_specific(self):
        findings = findings_of(m="""
            import time

            def helper(self):
                time.sleep(0.5)
                with self.structure_lock.write():
                    pass

            def outer(self):
                with self._lock.write():
                    self.helper()  # analysis: ignore[LK006]
        """)
        assert codes(findings) == ["LK007"]


class TestAsyncWith:
    def test_async_with_lock_region_tracked(self):
        findings = findings_of(m="""
            import time

            def helper():
                time.sleep(0.5)

            async def outer(self):
                async with self.node_lock.read():
                    helper()
        """)
        assert codes(findings) == ["LK006"]

    def test_async_function_seeds_summaries(self):
        findings = findings_of(m="""
            import asyncio

            async def helper(evt):
                evt.wait()

            async def outer(self, evt):
                async with self.node_lock.read():
                    await helper(evt)
        """)
        assert codes(findings) == ["LK006"]


class TestSelfLint:
    def test_src_repro_is_clean_at_head(self):
        findings = lint_paths([REPO_SRC])
        assert findings == [], "\n".join(str(f) for f in findings)
        # Non-vacuous: the same corpus plus a probe that calls a runtime
        # method taking the graph lock under an item lock yields LK007.
        sources = {}
        for path in iter_python_files([REPO_SRC]):
            with open(path, encoding="utf-8") as fh:
                sources[path] = fh.read()
        sources["probe.py"] = textwrap.dedent("""
            def probe(self, registry, key):
                with self.handler._lock.write():
                    registry.undefine(key)
        """)
        findings = lint_sources(sources)
        assert codes(findings) == ["LK007"]
        assert findings[0].details["path"][0]["function"] == \
            "repro.metadata.registry.MetadataRegistry.undefine"
