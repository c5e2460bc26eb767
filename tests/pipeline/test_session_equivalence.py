"""The pipeline's central promise: every answer a :class:`CpprSession`
gives after any sequence of edits is bit-for-bit what a from-scratch
:class:`CpprEngine` computes on the same edited design — across the
backend x executor matrix, for delay edits, clock edits, combined
batches, the full-rebuild fallback, and sigma-served cached families."""

from __future__ import annotations

import random

import pytest

from repro import (CpprEngine, CpprOptions, DelayUpdate, TimingAnalyzer,
                   faults)
from repro.sta.incremental import apply_clock_updates, apply_delay_updates
from tests.helpers import random_small

try:
    import numpy  # noqa: F401
    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    HAVE_NUMPY = False

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy required")

CONFIGS = [
    pytest.param("scalar", "serial", id="scalar"),
    pytest.param("array", "serial", id="array-batched",
                 marks=needs_numpy),
    pytest.param("array", "thread", id="array-batched-thread",
                 marks=needs_numpy),
]

MODES = ("setup", "hold")


def _key(path):
    return (path.slack, path.credit, tuple(path.pins), path.family,
            path.launch_ff, path.capture_ff, path.level)


def _keys(paths):
    return [_key(path) for path in paths]


def _options(backend, executor):
    return CpprOptions(backend=backend, executor=executor)


def _fresh_paths(graph, constraints, delay_batches, clock, options, k,
                 mode):
    """From-scratch reference: functional edits, cold analyzer/engine."""
    edited = graph
    if clock:
        edited = apply_clock_updates(edited, clock)
    for batch in delay_batches:
        edited = apply_delay_updates(edited, batch)
    engine = CpprEngine(TimingAnalyzer(edited, constraints), options)
    return engine.top_paths(k, mode)


def _random_edits(rng, graph, count, late_shift=(0.0, 0.4)):
    """``count`` distinct-edge :class:`DelayUpdate` batches against the
    graph's *current* delays (absolute new values, so the same batch
    applies identically to the session and the functional reference)."""
    edges = [(u, v, e, l) for u in range(graph.num_pins)
             for v, e, l in graph.fanout[u]]
    rng.shuffle(edges)
    seen, out = set(), []
    for u, v, early, late in edges:
        if len(out) == count:
            break
        if (u, v) in seen:
            continue
        seen.add((u, v))
        new_early = max(0.0, early + rng.uniform(-0.3, 0.2))
        new_late = max(new_early, late + rng.uniform(*late_shift))
        out.append(DelayUpdate(graph.pin_name(u), graph.pin_name(v),
                               new_early, new_late))
    return out


def _assert_matches_fresh(session, graph, constraints, delay_batches,
                          clock, options, k=6):
    for mode in MODES:
        fresh = _fresh_paths(graph, constraints, delay_batches, clock,
                             options, k, mode)
        assert _keys(session.top_paths(k, mode)) == _keys(fresh), mode


@pytest.mark.parametrize("backend,executor", CONFIGS)
class TestDelayEditEquivalence:
    def test_cumulative_edit_batches(self, backend, executor):
        graph, constraints = random_small(23)
        options = _options(backend, executor)
        engine = CpprEngine(TimingAnalyzer(graph, constraints), options)
        session = engine.session()
        rng = random.Random(404)
        applied = []
        # Warm query first so later updates exercise revalidation.
        session.top_paths(6, "setup")
        for _round in range(3):
            edits = _random_edits(rng, session.graph, 3)
            summary = session.update(delays=edits)
            applied.append(edits)
            assert summary["dirty_pins"] > 0 or summary["full_rebuild"]
            _assert_matches_fresh(session, graph, constraints, applied,
                                  None, options)
        assert session.values_version == 3

    def test_update_before_first_query(self, backend, executor):
        graph, constraints = random_small(29)
        options = _options(backend, executor)
        session = CpprEngine(TimingAnalyzer(graph, constraints),
                             options).session()
        edits = _random_edits(random.Random(7), session.graph, 4)
        session.update(delays=edits)
        _assert_matches_fresh(session, graph, constraints, [edits],
                              None, options)

    def test_repeat_edits_of_one_edge(self, backend, executor):
        graph, constraints = random_small(31)
        options = _options(backend, executor)
        session = CpprEngine(TimingAnalyzer(graph, constraints),
                             options).session()
        session.top_paths(4, "setup")
        edit = _random_edits(random.Random(3), session.graph, 1)[0]
        again = DelayUpdate(edit.driver, edit.sink, edit.early + 0.05,
                            edit.late + 0.45)
        # One batch touching the same edge twice: the last write wins,
        # but sigma must pessimize over every value the run held.
        session.update(delays=[edit, again])
        _assert_matches_fresh(session, graph, constraints,
                              [[edit], [again]], None, options)


class TestClockEditEquivalence:
    @pytest.mark.parametrize("backend,executor", CONFIGS)
    def test_clock_edit(self, backend, executor):
        graph, constraints = random_small(37)
        options = _options(backend, executor)
        session = CpprEngine(TimingAnalyzer(graph, constraints),
                             options).session()
        session.top_paths(5, "hold")
        tree = session.graph.clock_tree
        node = min(2, len(tree.names) - 1)
        clock = {tree.names[node]: (tree.delays_early[node] + 0.15,
                                    tree.delays_late[node] + 0.3)}
        session.update(clock=clock)
        assert session.tree_epoch == 1
        _assert_matches_fresh(session, graph, constraints, [], clock,
                              options)

    def test_combined_clock_and_delay_batch(self):
        graph, constraints = random_small(41)
        options = _options("scalar", "serial")
        session = CpprEngine(TimingAnalyzer(graph, constraints),
                             options).session()
        session.top_paths(6, "setup")
        tree = session.graph.clock_tree
        clock = {tree.names[1]: (tree.delays_early[1] + 0.2,
                                 tree.delays_late[1] + 0.25)}
        edits = _random_edits(random.Random(11), session.graph, 3)
        summary = session.update(delays=edits, clock=clock)
        assert session.tree_epoch == 1
        assert session.values_version == 1
        assert summary["dirty_pins"] > 0 or summary["full_rebuild"]
        _assert_matches_fresh(session, graph, constraints, [edits],
                              clock, options)


class TestSessionHousekeeping:
    def test_noop_update_changes_nothing(self):
        graph, constraints = random_small(43)
        session = CpprEngine(TimingAnalyzer(graph, constraints),
                             _options("scalar", "serial")
                             ).session()
        before = _keys(session.top_paths(4, "setup"))
        summary = session.update()
        assert summary == {"dirty_pins": 0, "dirty_fraction": 0.0,
                           "families_kept": len(session._families),
                           "families_dropped": 0, "full_rebuild": False}
        assert (session.tree_epoch, session.values_version) == (0, 0)
        # Same basis: the select artifact still serves.
        hits = session._select.stats()["hits"]
        assert _keys(session.top_paths(4, "setup")) == before
        assert session._select.stats()["hits"] == hits + 1

    def test_unedited_session_matches_parent_engine(self):
        graph, constraints = random_small(47)
        options = _options("scalar", "serial")
        engine = CpprEngine(TimingAnalyzer(graph, constraints), options)
        session = engine.session()
        for mode in MODES:
            assert (_keys(session.top_paths(5, mode))
                    == _keys(engine.top_paths(5, mode)))

    def test_parent_is_never_mutated(self):
        graph, constraints = random_small(53)
        options = _options("array" if HAVE_NUMPY else "scalar",
                           "serial")
        engine = CpprEngine(TimingAnalyzer(graph, constraints), options)
        baseline = {mode: _keys(engine.top_paths(5, mode))
                    for mode in MODES}
        rows_before = [list(row) for row in graph.fanout]
        tree_before = graph.clock_tree

        session = engine.session()
        tree = session.graph.clock_tree
        session.update(
            delays=_random_edits(random.Random(2), session.graph, 5),
            clock={tree.names[1]: (tree.delays_early[1] + 0.4,
                                   tree.delays_late[1] + 0.5)})
        session.top_paths(5, "setup")

        assert graph.clock_tree is tree_before
        assert [list(row) for row in graph.fanout] == rows_before
        engine.clear_cache()
        for mode in MODES:
            assert _keys(engine.top_paths(5, mode)) == baseline[mode]

    def test_select_prefix_serving(self):
        graph, constraints = random_small(59)
        options = _options("scalar", "serial")
        session = CpprEngine(TimingAnalyzer(graph, constraints),
                             options).session()
        full = session.top_paths(6, "setup")
        hits = session._select.stats()["hits"]
        prefix = session.top_paths(3, "setup")
        assert session._select.stats()["hits"] == hits + 1
        assert _keys(prefix) == _keys(full)[:3]
        fresh = _fresh_paths(graph, constraints, [], None, options, 3,
                             "setup")
        assert _keys(prefix) == _keys(fresh)


class TestFallbackAndServing:
    def test_full_rebuild_fallback_stays_exact(self):
        """An edit whose cone floods the graph trips the full-sweep
        fallback — and the answers are still bit-identical."""
        graph, constraints = random_small(61, num_ffs=16, num_gates=150,
                                          global_mix=0.9)
        options = _options("scalar", "serial")
        session = CpprEngine(TimingAnalyzer(graph, constraints),
                             options).session()
        session.top_paths(5, "setup")

        from repro.pipeline.dirty import fanout_cone, topo_positions
        positions = topo_positions(session.graph)
        cap = max(64, int(0.25 * session.graph.num_pins))
        wide = None
        for u in range(session.graph.num_pins):
            for v, early, late in session.graph.fanout[u]:
                if fanout_cone(session.graph, [v], positions,
                               cap=cap) is None:
                    wide = DelayUpdate(u, v, early + 0.1, late + 0.6)
                    break
            if wide is not None:
                break
        assert wide is not None, "design too small to flood the cap"
        summary = session.update(delays=[wide])
        assert summary["full_rebuild"]
        assert session.last_dirty_fraction == 1.0
        _assert_matches_fresh(session, graph, constraints, [[wide]],
                              None, options)

    def test_identity_clock_edit_keeps_every_family(self):
        """A clock edit that changes no node delay dirties nothing: all
        families restamp, and answers are unchanged."""
        graph, constraints = random_small(67)
        session = CpprEngine(TimingAnalyzer(graph, constraints),
                             _options("scalar", "serial")
                             ).session()
        before = _keys(session.top_paths(5, "setup"))
        tree = session.graph.clock_tree
        summary = session.update(
            clock={tree.names[1]: (tree.delays_early[1],
                                   tree.delays_late[1])})
        assert session.tree_epoch == 1
        assert summary["families_dropped"] == 0
        assert summary["families_kept"] > 0
        reruns_before = session._families.stats()["misses"]
        assert _keys(session.top_paths(5, "setup")) == before
        # Every family served from cache — no recomputation at all.
        assert session._families.stats()["misses"] == reruns_before

    def test_sigma_serves_families_after_small_edit(self):
        """A small off-critical edit must keep at least one cached
        family (the sigma bound at work) while staying exact."""
        graph, constraints = random_small(71, num_ffs=8, num_gates=24)
        options = _options("scalar", "serial")
        session = CpprEngine(TimingAnalyzer(graph, constraints),
                             options).session()
        session.top_paths(3, "setup")
        session.top_paths(3, "hold")
        # An identity edit: sigma pessimizes over a single value pair,
        # so any family no critical path crosses must survive.
        u = next(u for u in range(session.graph.num_pins)
                 if session.graph.fanout[u])
        v, early, late = session.graph.fanout[u][0]
        tiny = DelayUpdate(u, v, early, late)
        summary = session.update(delays=[tiny])
        assert summary["families_kept"] > 0, summary
        _assert_matches_fresh(session, graph, constraints, [[tiny]],
                              None, options, k=3)


class TestChaosEndToEnd:
    def test_stale_artifact_fault_is_detected_not_served(self):
        """Inject a missed-invalidation fault into the restamp path:
        the next query must *detect* the poisoned family, re-run it,
        and still return the exact answer."""
        graph, constraints = random_small(73)
        options = _options("scalar", "serial")
        session = CpprEngine(TimingAnalyzer(graph, constraints),
                             options).session()
        before = _keys(session.top_paths(5, "setup"))
        tree = session.graph.clock_tree
        with faults.inject("pipeline.stale_artifact:times=1"):
            summary = session.update(
                clock={tree.names[1]: (tree.delays_early[1],
                                       tree.delays_late[1])})
        assert summary["families_kept"] > 0
        assert _keys(session.top_paths(5, "setup")) == before
        assert session._families.stale_detected == 1
        fresh = _fresh_paths(graph, constraints, [], None, options, 5,
                             "setup")
        assert _keys(session.top_paths(5, "setup")) == _keys(fresh)


def test_process_executor_matches_fresh_engine():
    graph, constraints = random_small(79)
    options = _options("scalar", "process")
    session = CpprEngine(TimingAnalyzer(graph, constraints),
                         options).session()
    edits = _random_edits(random.Random(13), session.graph, 3)
    session.update(delays=edits)
    _assert_matches_fresh(session, graph, constraints, [edits], None,
                          options, k=4)
