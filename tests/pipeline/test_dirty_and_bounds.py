"""Dirty-cone tracking and the sigma slack lower bounds."""

from __future__ import annotations

import random

import pytest

from repro import CpprEngine, CpprOptions, DelayUpdate, TimingAnalyzer
from repro.core import HAVE_NUMPY
from repro.obs import collecting
from repro.pipeline import session as session_module
from repro.pipeline.bounds import SIGMA_SLOP, sigma_min
from repro.pipeline.dirty import (clock_dirty_ffs, fanout_cone,
                                  topo_positions)
from repro.pipeline.state import build_mode_state
from repro.sta.incremental import apply_clock_updates
from repro.sta.modes import AnalysisMode
from tests.corners.helpers import random_corner_set, random_edits
from tests.helpers import demo_design, random_small, two_ff_design

INF = float("inf")
MODES = ("setup", "hold")
BACKENDS = ["scalar",
            pytest.param("array", marks=pytest.mark.skipif(
                not HAVE_NUMPY, reason="numpy required"))]


class TestFanoutCone:
    def test_cone_is_inclusive_and_topo_ordered(self):
        graph, _ = demo_design()
        positions = topo_positions(graph)
        root = graph.pin_index["g1/A0"]
        cone = fanout_cone(graph, [root], positions)
        assert root in cone
        assert cone == sorted(cone, key=positions.__getitem__)
        # Every fanout target of a cone pin is itself in the cone.
        members = set(cone)
        for pin in cone:
            for target, _e, _l in graph.fanout[pin]:
                assert target in members

    def test_cap_triggers_fallback_signal(self):
        graph, _ = demo_design()
        positions = topo_positions(graph)
        root = graph.pin_index["ff1/Q"]
        full = fanout_cone(graph, [root], positions)
        assert fanout_cone(graph, [root], positions,
                           cap=len(full) - 1) is None
        assert fanout_cone(graph, [root], positions,
                           cap=len(full)) == full

    def test_sink_pin_cone_is_itself(self):
        graph, _ = demo_design()
        positions = topo_positions(graph)
        sink = graph.pin_index["ff2/D"]
        assert fanout_cone(graph, [sink], positions) == [sink]


class TestClockDirtyFfs:
    def test_subtree_edit_marks_only_its_leaves(self):
        graph, _ = demo_design()
        old = graph.clock_tree
        # b1 subtree carries ff1 and ff2 (demo_netlist wiring).
        new = apply_clock_updates(graph, {"b1": (1.1, 1.6)}).clock_tree
        dirty = clock_dirty_ffs(old, new)
        names = {graph.ffs[index].name for index in dirty}
        assert names == {"ff1", "ff2"}

    def test_identity_edit_marks_nothing(self):
        graph, _ = demo_design()
        old = graph.clock_tree
        node = old.names.index("b1")
        same = apply_clock_updates(
            graph, {"b1": (old.delays_early[node],
                           old.delays_late[node])}).clock_tree
        assert clock_dirty_ffs(old, same) == []


class TestSigmaMin:
    def _setup(self, seed=11, backend="scalar"):
        graph, constraints = random_small(seed, num_ffs=8, num_gates=20)
        analyzer = TimingAnalyzer(graph, constraints)
        mode = AnalysisMode.SETUP
        state = build_mode_state(graph, mode, backend, True, True)
        core = None
        if backend == "array":
            from repro.core.arrays import get_core
            core = get_core(graph)
        return graph, analyzer, state, core

    def _edge(self, graph):
        for u in range(graph.num_pins):
            for v, e, l in graph.fanout[u]:
                return u, v, e, l
        raise AssertionError("no edges")

    def test_no_runs_means_infinite_bounds(self):
        graph, analyzer, state, core = self._setup()
        rows = list(range(state.num_rows))
        empty = [{} for _ in range(state.num_rows)]
        sigmas = sigma_min(graph, core, state, rows, [], empty,
                           analyzer.constraints.clock_period, "scalar")
        assert all(sigmas[row] == INF for row in rows)

    def test_finite_sigma_bounds_real_crossing_paths(self):
        """Every reported candidate path through the edited run must
        have ranking slack >= sigma for its row — the soundness
        property the family-serve rule rests on."""
        from repro.cppr.level_paths import paths_at_level

        for backend in ("scalar", "array"):
            if backend == "array":
                # The scalar pass above has run; only this half needs
                # the array substrate.
                pytest.importorskip("numpy", exc_type=ImportError)
            graph, analyzer, state, core = self._setup(seed=13,
                                                       backend=backend)
            u, v, _e, late = self._edge(graph)
            runs = [(u, v, late)]  # unchanged delay: bounds current run
            rows = list(range(len(state.levels)))
            empty = [{} for _ in range(state.num_rows)]
            sigmas = sigma_min(graph, core, state, rows, runs, empty,
                               analyzer.constraints.clock_period,
                               backend)
            for level in rows:
                paths = paths_at_level(analyzer, level, 50, "setup",
                                       backend=backend)
                crossing = [p for p in paths
                            if any(p.pins[i] == u and p.pins[i + 1] == v
                                   for i in range(len(p.pins) - 1))]
                for path in crossing:
                    # The per-level ranking slack is the path slack plus
                    # the level credit already folded in by the family.
                    assert path.slack >= sigmas[level] - 1e-9, (
                        backend, level, path.slack, sigmas[level])

    def test_scalar_and_numpy_sweeps_agree(self):
        graph, analyzer, state, _core = self._setup(seed=17)
        u, v, _e, late = self._edge(graph)
        runs = [(u, v, late + 0.7)]
        rows = list(range(state.num_rows))
        empty = [{} for _ in range(state.num_rows)]
        period = analyzer.constraints.clock_period
        via_python = sigma_min(graph, None, state, rows, runs, empty,
                               period, "scalar")
        assert any(sigma != INF for sigma in via_python.values())

        pytest.importorskip("numpy", exc_type=ImportError)
        graph, analyzer, state, core = self._setup(seed=17,
                                                   backend="array")
        via_numpy = sigma_min(graph, core, state, rows, runs, empty,
                              period, "array")
        assert via_numpy == via_python

    def test_slop_is_applied_to_finite_bounds(self):
        """On ``two_ff_design`` the bound through the ``g/Y -> ffb/D``
        run at level 1 (the LCA ``buf``'s depth) is the exact post-CPPR
        slack of ``ffa -> ffb``, less the slop."""
        graph, constraints = two_ff_design()
        u = graph.pin_index["g/Y"]
        v = graph.pin_index["ffb/D"]
        empty = [{} for _ in range(graph.clock_tree.num_levels + 2)]
        # Setup: capture at_early(ffb) 1.5 + period 6.0 - t_setup 0.2
        # = 7.3, less launch at_late(ffa) 2.3 + clk-to-q 0.3 + gate
        # 2.0 - credit(buf) 0.5 = 4.1.  Hold: launch at_early(ffa) 1.5
        # + 0.2 + 1.0 + credit 0.5 = 3.2, less capture at_late(ffb)
        # 2.1 + t_hold 0.1 = 2.2.
        for mode, exact in ((AnalysisMode.SETUP, 3.2),
                            (AnalysisMode.HOLD, 1.0)):
            state = build_mode_state(graph, mode, "scalar", True, True)
            sigma = sigma_min(graph, None, state, [1], [(u, v, 0.0)],
                              empty, constraints.clock_period,
                              "scalar")[1]
            slop = SIGMA_SLOP * max(1.0, abs(exact))
            assert sigma == pytest.approx(exact - slop, abs=1e-12), mode
            assert sigma < exact - slop / 2, mode


def _warm(session, k=4):
    for mode in MODES:
        session.top_paths(k, mode)


def _over_cap_session(backend):
    """A warm session and an edit whose dirty cone exceeds the
    full-rebuild cap."""
    graph, constraints = random_small(61, num_ffs=16, num_gates=150,
                                      global_mix=0.9)
    session = CpprEngine(TimingAnalyzer(graph, constraints),
                         CpprOptions(backend=backend)).session()
    _warm(session)
    g = session.graph
    positions = topo_positions(g)
    cap = max(64, int(session_module.FULL_SWEEP_FRACTION * g.num_pins))
    u, v, early, late = next(
        (u, v, e, l) for u in range(g.num_pins)
        for v, e, l in g.fanout[u]
        if fanout_cone(g, [v], positions, cap=cap) is None)
    return session, DelayUpdate(u, v, early, late + 1e-3)


class TestConeSweepExact:
    """The cone sweep's sigmas equal the whole-graph sweep's exactly.

    The ``spy`` fixture stands in for the session's ``sigma_min``: each
    call is re-run over the whole graph (the numpy sweep on the array
    substrate) and over the scalar reference, and the three dicts must
    be ``==`` — no tolerance, ``inf`` included.  So every cone a real
    update produces is checked, and a cone that misses a fanout pin
    fails.
    """

    @pytest.fixture
    def spy(self, monkeypatch):
        cones = []

        def checked(graph, core, state, rows, runs, old_times, period,
                    substrate, cone=None):
            got = sigma_min(graph, core, state, rows, runs, old_times,
                            period, substrate, cone)
            whole = sigma_min(graph, core, state, rows, runs, old_times,
                              period, substrate)
            reference = sigma_min(graph, None, state, rows, runs,
                                  old_times, period, "scalar")
            assert got == whole == reference, (cone, got, whole)
            cones.append(cone)
            return got

        monkeypatch.setattr(session_module, "sigma_min", checked)
        return cones

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_random_batches_keep_and_drop(self, spy, backend):
        kept = dropped = 0
        for seed in range(24):
            graph, constraints = random_small(seed)
            session = CpprEngine(TimingAnalyzer(graph, constraints),
                                 CpprOptions(backend=backend)).session()
            rng = random.Random(seed)
            for _round in range(4):
                _warm(session)
                edits = random_edits(session.graph, rng,
                                     rng.randint(1, 4),
                                     spread=rng.choice((1e-3, 0.5)))
                summary = session.update(delays=edits)
                kept += summary["families_kept"]
                dropped += summary["families_dropped"]
        assert kept > 0 and dropped > 0
        assert sum(cone is not None for cone in spy) > 50

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mixed_clock_and_delay_cone(self, spy, backend):
        """A cone rooted at a clock-dirty flip-flop's Q pin as well as
        at the edited sink."""
        graph, constraints = random_small(7)
        session = CpprEngine(TimingAnalyzer(graph, constraints),
                             CpprOptions(backend=backend)).session()
        _warm(session)
        g = session.graph
        u, v, early, late = [(u, v, e, l) for u in range(g.num_pins)
                             for v, e, l in g.fanout[u]
                             if v in g.ff_of_d_pin][-1]
        tree = g.clock_tree
        summary = session.update(
            delays=[DelayUpdate(u, v, early, late + 0.01)],
            clock={tree.names[1]: (tree.delays_early[1] + 0.1,
                                   tree.delays_late[1] + 0.1)})
        assert summary["families_kept"] > 0
        q_pins = {ff.q_pin for ff in g.ffs}
        assert any(cone and q_pins.intersection(cone) for cone in spy)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_multi_corner_union_cone(self, spy, backend):
        graph, constraints = random_small(5)
        corners = random_corner_set(graph, seed=5, count=3)
        session = CpprEngine(TimingAnalyzer(graph, constraints),
                             CpprOptions(backend=backend,
                                         corners=corners)).session()
        rng = random.Random(5)
        for _round in range(3):
            for name in corners.names:
                for mode in MODES:
                    session.top_paths(4, mode, corner=name)
            del spy[:]
            session.update(delays=random_edits(
                session.sessions["typ"].graph, rng, 3))
            # Every corner's sweep ran over the one shared union cone.
            assert len(spy) >= 2
            assert all(cone is spy[0] for cone in spy)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_above_the_cap_sweeps_whole_graph(self, spy, backend):
        session, edit = _over_cap_session(backend)
        summary = session.update(delays=[edit])
        assert summary["full_rebuild"]
        assert spy and all(cone is None for cone in spy)


class TestBoundsCounters:
    def _eco_session(self, backend):
        graph, constraints = random_small(23)
        session = CpprEngine(TimingAnalyzer(graph, constraints),
                             CpprOptions(backend=backend)).session()
        _warm(session)
        g = session.graph
        # An ECO-style nudge: the last data edge into a D pin.
        u, v, early, late = [(u, v, e, l) for u in range(g.num_pins)
                             for v, e, l in g.fanout[u]
                             if v in g.ff_of_d_pin][-1]
        return session, DelayUpdate(u, v, early, late + 1e-3)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_eco_edit_sweeps_its_cone(self, backend):
        session, edit = self._eco_session(backend)
        with collecting() as col:
            summary = session.update(delays=[edit])
        profile = col.profile()
        assert not summary["full_rebuild"]
        assert profile.counter("pipeline.dirty_pins") == \
            summary["dirty_pins"]
        # One cone sweep per mode with cached families.
        assert profile.counter("pipeline.bounds.pins") == \
            2 * summary["dirty_pins"]
        assert profile.counter("pipeline.bounds.full") == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_full_rebuild_sweeps_whole_graph(self, backend):
        session, edit = _over_cap_session(backend)
        with collecting() as col:
            summary = session.update(delays=[edit])
        profile = col.profile()
        assert summary["full_rebuild"]
        assert profile.counter("pipeline.bounds.full") == 2
        assert profile.counter("pipeline.bounds.pins") == \
            2 * session.graph.num_pins


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy required")
class TestSweepSingleRows:
    """The array state's self-loop and primary-input rows come from the
    batched sweep's rows D and D + 1; they must be what the standalone
    single-tuple passes build."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", [0, 4, 9])
    def test_rows_equal_standalone_passes(self, seed, mode):
        from repro.cppr.pi_paths import primary_input_seed_map
        from repro.cppr.propagation import Seed, propagate_single
        from repro.cppr.selfloop_paths import self_loop_seed_map

        def bits(column):
            return [value.hex() for value in column]

        graph, _ = random_small(seed)
        mode = AnalysisMode.coerce(mode)
        array = build_mode_state(graph, mode, "array", True, True)
        scalar = build_mode_state(graph, mode, "scalar", True, True)
        rows = ((array.self_loop, scalar.self_loop, self_loop_seed_map),
                (array.primary_input, scalar.primary_input,
                 primary_input_seed_map))
        for got, want, seed_map in rows:
            seeds = seed_map(graph, mode)
            ref = propagate_single(
                graph, mode, [Seed(pin, *seed) for pin, seed in seeds.items()],
                backend="array")
            # Lists the session may patch in place, not sweep views.
            for column in (got.time, got.from_pin, got.cost0):
                assert type(column) is list
            assert bits(got.time) == bits(ref.time) == bits(want.time)
            assert got.from_pin == ref.from_pin == want.from_pin
            assert bits(got.cost0) == bits(ref.fast.cost0)
            assert got.seeds == want.seeds == seeds

    def test_disabled_families_keep_no_row(self):
        graph, _ = random_small(2)
        state = build_mode_state(graph, AnalysisMode.HOLD, "array",
                                 False, True)
        assert state.self_loop is None
        assert state.primary_input is not None
        assert state.row(len(state.levels)) is None
