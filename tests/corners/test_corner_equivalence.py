"""The multi-corner ground truth: fused == a loop of single-corner runs.

Three layers, each pinned bit-for-bit (no tolerance):

* **Core**: ``propagate_dual_batched_corners`` over ``C`` corner graphs
  equals a Python loop of ``C`` ``propagate_dual_batched`` calls —
  every state matrix, every seed count, both modes (``np.array_equal``,
  so even NaN/inf cells must agree cell-for-cell).
* **Engine**: a corners-configured ``CpprEngine`` equals ``C``
  independent single-corner engines across backend x executor,
  including the descriptor-sharded process rung (one pool forked after
  the fused sweep, ``C`` batch keys).
* **Session**: a ``MultiCornerSession`` (one edit -> one shared dirty
  cone -> all corners revalidated) tracks ``C`` independent
  single-corner sessions across an edit sequence — and stays exact
  under the ``task.exception`` and ``pipeline.stale_artifact`` chaos
  sites with ``C > 1``.
"""

from __future__ import annotations

import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.corners.helpers import (fingerprint, random_corner_set,
                                   random_edits)
from tests.helpers import random_small

from repro import CpprEngine, CpprOptions, TimingAnalyzer
from repro import faults
from repro.sta.modes import AnalysisMode

MODES = ("setup", "hold")


def _independent(analyzer, corners, backend, k, mode, **options):
    """C fully independent single-corner engines' answers."""
    realized = corners.realize(analyzer, backend)
    out = {}
    for name, corner_analyzer in realized.items():
        engine = CpprEngine(corner_analyzer,
                            CpprOptions(backend=backend, **options))
        out[name] = fingerprint(engine.top_paths(k, mode))
    return out


class TestBatchedCore:
    """The stacked (C*2D, n) sweep against the (2D, n) loop."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), count=st.integers(1, 4))
    def test_fused_matrices_equal_loop(self, seed, count):
        np = pytest.importorskip("numpy", exc_type=ImportError)
        from repro.core.batched import (propagate_dual_batched,
                                        propagate_dual_batched_corners)

        graph, constraints = random_small(seed)
        analyzer = TimingAnalyzer(graph, constraints)
        corners = random_corner_set(graph, seed=seed, count=count)
        realized = corners.realize(analyzer, "array")
        graphs = [realized[name].graph for name in corners.names]
        for mode in (AnalysisMode.SETUP, AnalysisMode.HOLD):
            fused = propagate_dual_batched_corners(graphs, mode)
            for corner_graph, batch in zip(graphs, fused):
                solo = propagate_dual_batched(corner_graph, mode)
                assert batch.num_levels == solo.num_levels
                assert batch.seed_counts == solo.seed_counts
                for field in ("time0", "from0", "group0", "time1",
                              "from1", "group1", "cost0"):
                    assert np.array_equal(getattr(batch, field),
                                          getattr(solo, field),
                                          equal_nan=True), field

    def test_structure_sharing_is_required(self):
        pytest.importorskip("numpy", exc_type=ImportError)
        from repro.core.batched import propagate_dual_batched_corners

        graph_a, _ = random_small(1)
        graph_b, _ = random_small(2)
        from repro.core.arrays import get_core
        get_core(graph_a), get_core(graph_b)
        with pytest.raises(Exception, match="share one CoreStructure"):
            propagate_dual_batched_corners([graph_a, graph_b],
                                           AnalysisMode.SETUP)


class TestEngineEquivalence:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_fused_equals_independent_runs(self, seed):
        """Hypothesis sweep: serial engines, both backends, C=3."""
        graph, constraints = random_small(seed)
        analyzer = TimingAnalyzer(graph, constraints)
        corners = random_corner_set(graph, seed=seed, count=3)
        for backend in ("scalar", "array"):
            if backend == "array":
                try:
                    import numpy  # noqa: F401
                except ImportError:
                    continue
            engine = CpprEngine(analyzer, CpprOptions(
                backend=backend, corners=corners))
            for mode in MODES:
                fused = engine.top_paths_by_corner(5, mode)
                want = _independent(analyzer, corners, engine.backend,
                                    5, mode)
                for name in corners.names:
                    assert fingerprint(fused[name]) == want[name], (
                        backend, mode, name)

    @pytest.mark.parametrize("backend,executor", [
        ("scalar", "thread"),
        ("array", "thread"),
        ("array", "process"),
    ])
    def test_parallel_executors_match(self, backend, executor):
        if backend == "array" or executor == "process":
            pytest.importorskip("numpy", exc_type=ImportError)
        if executor == "process":
            from repro.cppr.parallel import available_executors
            if "process" not in available_executors():
                pytest.skip("no fork support")
        graph, constraints = random_small(41)
        analyzer = TimingAnalyzer(graph, constraints)
        corners = random_corner_set(graph, seed=41, count=3)
        engine = CpprEngine(analyzer, CpprOptions(
            backend=backend, executor=executor, workers=2,
            corners=corners))
        for mode in MODES:
            fused = engine.top_paths_by_corner(5, mode)
            want = _independent(analyzer, corners, engine.backend, 5,
                                mode, executor=executor, workers=2)
            for name in corners.names:
                assert fingerprint(fused[name]) == want[name], (mode,
                                                                name)


class TestSessionEquivalence:
    def _solo_sessions(self, analyzer, corners, backend):
        realized = corners.realize(analyzer, backend)
        return {name: CpprEngine(corner_analyzer,
                                 CpprOptions(backend=backend)).session()
                for name, corner_analyzer in realized.items()}

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_eco_replay_tracks_solo_sessions(self, seed):
        """One multi-corner edit == the same edit on C solo sessions."""
        graph, constraints = random_small(seed)
        analyzer = TimingAnalyzer(graph, constraints)
        corners = random_corner_set(graph, seed=seed, count=3)
        for backend in ("scalar", "array"):
            if backend == "array":
                try:
                    import numpy  # noqa: F401
                except ImportError:
                    continue
            session = CpprEngine(analyzer, CpprOptions(
                backend=backend, corners=corners)).session()
            solos = self._solo_sessions(analyzer, corners, backend)
            rng = random.Random(seed + 1)
            for _round in range(2):
                edits = random_edits(session.sessions["typ"].graph,
                                     rng, 3)
                tree = session.sessions["typ"].graph.clock_tree
                clock = None
                if rng.random() < 0.5 and len(tree.names) > 1:
                    node = rng.randrange(1, len(tree.names))
                    clock = {tree.names[node]: (
                        tree.delays_early[node] * 1.05,
                        tree.delays_late[node] * 1.05)}
                summary = session.update(delays=edits, clock=clock)
                assert set(summary["corners"]) == set(corners.names)
                for solo in solos.values():
                    solo.update(delays=edits, clock=clock)
                for mode in MODES:
                    for name, solo in solos.items():
                        got = session.top_paths(4, mode, corner=name)
                        want = solo.top_paths(4, mode)
                        assert fingerprint(got) == fingerprint(want), (
                            backend, mode, name)

    def test_sigma_bound_checked_per_corner(self):
        """An edit off one corner's critical cone can keep families in
        that corner while dropping them in another — and every answer
        stays exact either way."""
        graph, constraints = random_small(55)
        analyzer = TimingAnalyzer(graph, constraints)
        corners = random_corner_set(graph, seed=55, count=3)
        session = CpprEngine(analyzer, CpprOptions(
            backend="scalar", corners=corners)).session()
        for name in corners.names:
            session.top_paths(3, "setup", corner=name)
        # An identity edit on typ's rows: typ sees no change at all;
        # other corners pessimize over (old corner value, typ value).
        base = session.sessions["typ"].graph
        u = next(u for u in range(base.num_pins) if base.fanout[u])
        v, early, late = base.fanout[u][0]
        from repro.sta.incremental import DelayUpdate
        summary = session.update(delays=[DelayUpdate(u, v, early,
                                                     late)])
        kept = {name: row["families_kept"]
                for name, row in summary["corners"].items()}
        assert kept["typ"] > 0
        solos = self._solo_sessions(analyzer, corners, "scalar")
        for solo in solos.values():
            solo.update(delays=[DelayUpdate(u, v, early, late)])
        for name, solo in solos.items():
            assert fingerprint(session.top_paths(3, "setup",
                                                 corner=name)) == \
                fingerprint(solo.top_paths(3, "setup")), name


class TestChaosUnderCorners:
    def test_stale_artifact_detected_per_corner(self):
        """A missed-invalidation fault with C > 1 is detected and
        re-run, never served."""
        graph, constraints = random_small(61)
        analyzer = TimingAnalyzer(graph, constraints)
        corners = random_corner_set(graph, seed=61, count=2)
        session = CpprEngine(analyzer, CpprOptions(
            backend="scalar", corners=corners)).session()
        for name in corners.names:
            session.top_paths(4, "setup", corner=name)
        tree = session.sessions["typ"].graph.clock_tree
        with faults.inject("pipeline.stale_artifact:times=1"):
            session.update(clock={tree.names[1]: (
                tree.delays_early[1], tree.delays_late[1])})
        solos = {name: CpprEngine(corner_analyzer,
                                  CpprOptions(backend="scalar"))
                 for name, corner_analyzer
                 in corners.realize(analyzer, "scalar").items()}
        for name, solo in solos.items():
            solo_session = solo.session()
            solo_session.update(clock={tree.names[1]: (
                tree.delays_early[1], tree.delays_late[1])})
            assert fingerprint(session.top_paths(4, "setup",
                                                 corner=name)) == \
                fingerprint(solo_session.top_paths(4, "setup")), name
        # The poisoned entry was detected (and re-run), never served.
        detected = sum(s._families.stale_detected
                       for s in session.sessions.values())
        assert detected == 1

    def test_task_exception_storm_degrades_with_exact_per_corner_reports(
            self):
        """A storm failing every process- and thread-rung attempt under
        C=3 walks the whole ladder and still produces per-corner
        answers equal to clean runs."""
        pytest.importorskip("numpy", exc_type=ImportError)
        from repro.cppr.parallel import available_executors

        if "process" not in available_executors():
            pytest.skip("no fork support")
        from repro import DegradedResultWarning
        from repro.faults import inject

        graph, constraints = random_small(62)
        analyzer = TimingAnalyzer(graph, constraints)
        corners = random_corner_set(graph, seed=62, count=3)
        clean = CpprEngine(analyzer, CpprOptions(
            backend="array", corners=corners))
        want = {name: fingerprint(paths) for name, paths
                in clean.top_paths_by_corner(5, "setup").items()}

        engine = CpprEngine(analyzer, CpprOptions(
            backend="array", executor="process", workers=2,
            max_retries=1, retry_backoff=0.0, corners=corners))
        # C * (D + 2) tasks, each tried twice per rung.  Every worker
        # and the parent start from the same firing budget: it covers
        # all process-rung attempts and is spent exactly by the thread
        # rung's, so only the serial rung runs clean.
        tasks = len(corners.names) * (analyzer.clock_tree.num_levels + 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            with inject(f"task.exception:times={2 * tasks}"):
                got = engine.top_paths_by_corner(5, "setup")
        assert [e["target"] for e in engine.last_degraded
                if e["event"] == "degrade.executor"] == ["thread",
                                                         "serial"]
        for name in corners.names:
            assert fingerprint(got[name]) == want[name], name
