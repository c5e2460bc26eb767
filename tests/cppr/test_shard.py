"""Descriptor-only process sharding over the shared-memory plane.

The shard module is the glue between the engine and
``repro.core.shm``: it publishes a query's value/batch columns once,
hands every task a picklable :class:`FamilyDescriptor`, and resolves
descriptors back to live cores inside workers.  These tests pin the
resolution contract in-process (owner path) and the engine-level
equivalence through the persistent fork pool; the failure modes ride
``tests/faults/test_shm_chaos.py``.
"""

from __future__ import annotations

import pickle

import pytest

np = pytest.importorskip("numpy")

from tests.helpers import random_small  # noqa: E402

from repro import (CpprEngine, CpprOptions,  # noqa: E402
                   DegradedResultWarning, TimingAnalyzer)
from repro.core import shm  # noqa: E402
from repro.core.arrays import CoreArrays  # noqa: E402
from repro.core.batched import propagate_dual_batched  # noqa: E402
from repro.cppr import shard  # noqa: E402
from repro.cppr.engine import _run_family_resilient  # noqa: E402
from repro.cppr.parallel import available_executors  # noqa: E402
from repro.exceptions import ExecutionError, ShmStaleError  # noqa: E402
from repro.sta.modes import AnalysisMode  # noqa: E402

pytestmark = pytest.mark.skipif(
    not shm.available(),
    reason="shared memory unavailable (platform or ambient fault plan)")


def _analyzer(seed: int = 21) -> TimingAnalyzer:
    graph, constraints = random_small(seed)
    return TimingAnalyzer(graph, constraints)


def _fingerprint(paths):
    return [(p.slack, tuple(p.pins)) for p in paths]


class TestDescriptors:
    def test_descriptor_runs_match_direct_dispatch(self):
        analyzer = _analyzer(21)
        mode = AnalysisMode.SETUP
        engine = CpprEngine(analyzer)  # forces the array core to exist
        engine.top_paths(1, mode)
        batch = propagate_dual_batched(analyzer.graph, mode)
        ctx = shard.open_query(analyzer, batch, publish_batch=True)
        try:
            tasks = [("level", d) for d
                     in range(analyzer.clock_tree.num_levels)]
            tasks += [("self_loop",), ("primary_input",)]
            for task in tasks:
                desc = ctx.descriptor(task, 4, mode, None, "array", False)
                got, _events = shard.run_family_descriptor(desc)
                want, _events = _run_family_resilient(
                    analyzer, task, 4, mode, None, "array",
                    batch if task[0] == "level" else None, False)
                assert _fingerprint(got) == _fingerprint(want), task
        finally:
            ctx.close()

    def test_descriptors_are_picklable(self):
        analyzer = _analyzer(22)
        mode = AnalysisMode.SETUP
        CpprEngine(analyzer).top_paths(1, mode)
        batch = propagate_dual_batched(analyzer.graph, mode)
        ctx = shard.open_query(analyzer, batch, publish_batch=True)
        try:
            desc = ctx.descriptor(("level", 0), 4, mode, None, "array",
                                  False)
            clone = pickle.loads(pickle.dumps(desc))
            assert clone.values_layout == desc.values_layout
            assert clone.batch_layout == desc.batch_layout
            assert clone.task == ("level", 0)
        finally:
            ctx.close()

    def test_stale_values_descriptor_is_detected(self):
        analyzer = _analyzer(23)
        mode = AnalysisMode.SETUP
        CpprEngine(analyzer).top_paths(1, mode)
        ctx = shard.open_query(analyzer, None, publish_batch=False)
        try:
            desc = ctx.descriptor(("self_loop",), 4, mode, None,
                                  "array", False)
            from repro.core.arrays import get_core
            core = get_core(analyzer.graph)
            core.values.version += 1  # an ECO edit after publication
            with pytest.raises(ShmStaleError):
                shard.run_family_descriptor(desc)
        finally:
            ctx.close()

    def test_close_releases_the_batch_segment(self):
        analyzer = _analyzer(24)
        mode = AnalysisMode.SETUP
        CpprEngine(analyzer).top_paths(1, mode)
        batch = propagate_dual_batched(analyzer.graph, mode)
        ctx = shard.open_query(analyzer, batch, publish_batch=True)
        assert ctx.batch_layout is not None
        assert ctx.batch_layout.segment in shm.REGISTRY.segments()
        ctx.close()
        assert ctx.batch_layout.segment not in shm.REGISTRY.segments()


def _refuse_publish(self, kind="values"):
    raise OSError("no space left on the shared-memory filesystem")


@pytest.mark.skipif("process" not in available_executors(),
                    reason="no fork support")
class TestPublishFailure:
    """A failed publish falls back to state the workers inherit."""

    def _engine(self, seed: int, **options) -> CpprEngine:
        return CpprEngine(_analyzer(seed), CpprOptions(
            executor="process", workers=2, backend="array", **options))

    def test_failed_publish_degrades_with_exact_report(self, monkeypatch):
        want = _fingerprint(CpprEngine(_analyzer(41), CpprOptions(
            backend="scalar")).top_paths(8, "setup"))
        monkeypatch.setattr(CoreArrays, "share_values", _refuse_publish)
        engine = self._engine(41)
        with pytest.warns(DegradedResultWarning):
            got = _fingerprint(engine.top_paths(8, "setup"))
        assert got == want
        assert [e["event"] for e in engine.last_degraded] == ["degrade.shm"]

    def test_failed_publish_raises_in_strict_mode(self, monkeypatch):
        monkeypatch.setattr(CoreArrays, "share_values", _refuse_publish)
        engine = self._engine(42, strict=True)
        with pytest.raises(ExecutionError, match="publish failed"):
            engine.top_paths(8, "setup")


class TestDesignRegistry:
    def test_token_is_cached_per_analyzer(self):
        analyzer = _analyzer(25)
        token = shard.publish_design(analyzer)
        assert shard.publish_design(analyzer) == token

    def test_distinct_analyzers_get_distinct_tokens(self):
        assert (shard.publish_design(_analyzer(26))
                != shard.publish_design(_analyzer(27)))


@pytest.mark.skipif("process" not in available_executors(),
                    reason="no fork support")
class TestPersistentPool:
    def test_pool_is_reused_across_calls(self):
        shard.shutdown_pool()
        try:
            pool = shard.ensure_pool(1)
            assert shard.ensure_pool(1) is pool
        finally:
            shard.shutdown_pool()

    def test_pool_recycles_on_worker_count_change(self):
        shard.shutdown_pool()
        try:
            pool = shard.ensure_pool(1)
            assert shard.ensure_pool(2) is not pool
        finally:
            shard.shutdown_pool()

    def test_pool_recycles_after_new_design_publication(self):
        shard.shutdown_pool()
        try:
            pool = shard.ensure_pool(1)
            shard.publish_design(_analyzer(28))
            assert shard.ensure_pool(1) is not pool
        finally:
            shard.shutdown_pool()

    def test_broken_pool_recovery_sweeps_batch_segments(self):
        shard.shutdown_pool()
        layout, _views = shm.REGISTRY.publish(
            "batch", {"a": np.zeros(4)})
        shard.ensure_pool(1)
        shard.handle_broken_pool()
        assert layout.segment not in shm.REGISTRY.segments()

    def test_process_query_matches_serial_and_cleans_batches(self):
        analyzer = _analyzer(29)
        serial = CpprEngine(analyzer).top_paths(6, "setup")
        graph2, constraints2 = random_small(29)
        engine = CpprEngine(TimingAnalyzer(graph2, constraints2),
                            CpprOptions(executor="process", workers=2))
        pooled = engine.top_paths(6, "setup")
        assert _fingerprint(pooled) == _fingerprint(serial)
        assert shm.REGISTRY.tracked_bytes("batch") == 0
