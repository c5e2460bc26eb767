"""Descriptor-only process sharding over fork inheritance.

The shard module is the glue between the engine and the fork pool: it
registers a query's design and batch, hands every task a picklable
:class:`FamilyDescriptor`, and resolves descriptors back to live
objects in whichever process runs the task.  These tests pin the
resolution contract in-process and the engine-level equivalence
through the fork pool, including a worker whose inherited core went
stale.
"""

from __future__ import annotations

import pickle
import warnings

import pytest

pytest.importorskip("numpy", exc_type=ImportError)

from tests.helpers import random_small  # noqa: E402

from repro import (CpprEngine, CpprOptions,  # noqa: E402
                   DegradedResultWarning, TimingAnalyzer)
from repro.core.arrays import get_core  # noqa: E402
from repro.core.batched import propagate_dual_batched  # noqa: E402
from repro.cppr import shard  # noqa: E402
from repro.cppr.engine import _run_family_resilient  # noqa: E402
from repro.cppr.parallel import available_executors  # noqa: E402
from repro.exceptions import StaleStateError  # noqa: E402
from repro.sta.modes import AnalysisMode  # noqa: E402


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

    def test_every_family_but_output_carries_the_batch_key(self):
        # The self-loop and primary-input passes read rows D and D + 1
        # of the query's sweep, so their descriptors name its batch
        # like the level tasks do; the output family never reads it.
        analyzer = _analyzer(26)
        mode = AnalysisMode.HOLD
        CpprEngine(analyzer).top_paths(1, mode)
        batch = propagate_dual_batched(analyzer.graph, mode)
        ctx = shard.open_query(analyzer, batch, publish_batch=False)
        try:
            assert ctx.batch_key is not None
            for task in (("level", 0), ("self_loop",), ("primary_input",)):
                desc = ctx.descriptor(task, 4, mode, None, "array", False)
                assert desc.batch_key == ctx.batch_key, task
            desc = ctx.descriptor(("output",), 4, mode, None, "array",
                                  False)
            assert desc.batch_key is None
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
            assert clone == desc
            assert len(pickle.dumps(desc)) < 1024
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
            core = get_core(analyzer.graph)
            core.values.version += 1  # an ECO edit after the query opened
            with pytest.raises(StaleStateError):
                shard.run_family_descriptor(desc)
        finally:
            ctx.close()

    def test_unregistered_batch_is_detected(self):
        analyzer = _analyzer(24)
        mode = AnalysisMode.SETUP
        CpprEngine(analyzer).top_paths(1, mode)
        batch = propagate_dual_batched(analyzer.graph, mode)
        ctx = shard.open_query(analyzer, batch, publish_batch=False)
        desc = ctx.descriptor(("level", 0), 4, mode, None, "array", False)
        ctx.close()
        assert desc.batch_key not in shard._QUERY_BATCHES
        with pytest.raises(StaleStateError):
            shard.run_family_descriptor(desc)


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

    def test_process_query_matches_serial_and_cleans_batches(self):
        analyzer = _analyzer(29)
        serial = CpprEngine(analyzer).top_paths(6, "setup")
        graph2, constraints2 = random_small(29)
        engine = CpprEngine(TimingAnalyzer(graph2, constraints2),
                            CpprOptions(executor="process", workers=2))
        pooled = engine.top_paths(6, "setup")
        assert _fingerprint(pooled) == _fingerprint(serial)
        assert engine.last_degraded == ()
        # Closing the query dropped its batch and retired the pool
        # forked to inherit it.
        assert not shard._QUERY_BATCHES
        assert shard._POOL is None

    def test_stale_worker_core_fails_over_to_the_parent(self):
        """A persistent pool's workers hold the core they inherited; a
        later in-place edit in the parent makes them stale.  Their tasks
        must fail and re-run on the parent's live core, never serve the
        old version."""
        analyzer = _analyzer(30)
        get_core(analyzer.graph)
        engine = CpprEngine(analyzer, CpprOptions(
            executor="process", workers=2, backend="scalar"))
        want = _fingerprint(engine.top_paths(6, "setup"))
        assert engine.last_degraded == ()
        pool = shard._POOL
        get_core(analyzer.graph).values.version += 1
        engine.clear_cache()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            got = _fingerprint(engine.top_paths(6, "setup"))
        assert got == want
        assert shard._POOL is pool
        errors = [e["error"] for e in engine.last_degraded
                  if e["event"] == "faults.task_error"]
        assert errors and all("StaleStateError" in e for e in errors)
        assert "degrade.executor" in {e["event"]
                                      for e in engine.last_degraded}
