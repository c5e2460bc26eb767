"""Deferred dirty-cone replay (docs/PROOFS.md L9).

A delay-only ECO round whose edited drivers lie outside every pending
cone records its cone as pending instead of replaying it.  The pending
region replays once, in topological order, when a read re-runs a
family, a clock edit arrives, or a later round edits a driver inside
it.  Every read here is compared with a fresh engine on the edited
design, and every round's summary with a twin session that replays each
round's cone before the next round starts, as an eager session does.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CpprEngine, CpprOptions, DelayUpdate, TimingAnalyzer
from repro.exceptions import AnalysisError
from repro.obs import collecting
from repro.pipeline import session as session_module
from repro.pipeline.state import build_mode_state
from repro.sta.incremental import apply_clock_updates, apply_delay_updates
from tests.corners.helpers import fingerprint, random_corner_set
from tests.helpers import random_small

try:
    import numpy  # noqa: F401
    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    HAVE_NUMPY = False

BACKENDS = [
    pytest.param("scalar", id="scalar"),
    pytest.param("array", id="array",
                 marks=pytest.mark.skipif(not HAVE_NUMPY,
                                          reason="numpy required")),
]

MODES = ("setup", "hold")
DEFERRED = "pipeline.replay.deferred"
FLUSHED = "pipeline.replay.flushed"
SUMMARY_KEYS = ("dirty_pins", "dirty_fraction", "families_kept",
                "families_dropped", "full_rebuild")


# ----------------------------------------------------------------------
# ECO rounds
# ----------------------------------------------------------------------
def _edit(u, v, early, late, rng, critical=False):
    """A small nudge, or an edit that slows every path through the
    edge for setup and speeds it up for hold."""
    if critical:
        return DelayUpdate(u, v, early * rng.uniform(0.1, 0.5),
                           late + rng.uniform(0.5, 2.0))
    a = early * rng.uniform(0.95, 1.05)
    b = late * rng.uniform(0.95, 1.05)
    return DelayUpdate(u, v, min(a, b), max(a, b))


def _downstream(graph, rng, pin):
    """A data edge whose driver lies in ``pin``'s fanout cone."""
    for _step in range(rng.randint(0, 3)):
        if not graph.fanout[pin]:
            break
        pin = rng.choice(graph.fanout[pin])[0]
    if not graph.fanout[pin]:
        return None
    v, early, late = rng.choice(graph.fanout[pin])
    return pin, v, early, late


def _clock_edit(graph, rng):
    tree = graph.clock_tree
    i = rng.randrange(1, len(tree.names))
    a = tree.delays_early[i] * rng.uniform(0.8, 1.2)
    b = tree.delays_late[i] * rng.uniform(0.8, 1.2)
    return {tree.names[i]: (min(a, b), max(a, b))}


def _round(graph, rng, history):
    """One round's ``(delays, clock)`` against ``graph``'s delays.

    Kinds: off-critical nudges, critical edits, a chained pair (the
    second edit's driver inside the first one's cone), an edit whose
    driver lies inside an earlier round's cone, a repeat of an earlier
    round's edge (or of one edge twice in the batch), and clock edits.
    ``history`` holds the edges of earlier rounds, latest last.
    """
    edges = [(u, v, early, late) for u in range(graph.num_pins)
             for v, early, late in graph.fanout[u]]
    delays, clock = [], None
    kind = rng.choice(("off", "off", "critical", "chain", "follow",
                       "repeat", "clock"))
    first = rng.choice(edges)
    if kind == "repeat" and history:
        u, v = history[-1] if rng.random() < 0.5 else rng.choice(history)
        first = next(edge for edge in edges if edge[:2] == (u, v))
    elif kind == "follow" and history:
        first = _downstream(graph, rng, history[-1][1]) or first
    delays.append(_edit(*first, rng, critical=kind == "critical"
                        or rng.random() < 0.2))
    if kind == "off":
        delays += [_edit(*edge, rng) for edge
                   in rng.sample(edges, rng.randint(0, 1))]
    elif kind == "chain":
        second = _downstream(graph, rng, first[1])
        if second is not None:
            delays.append(_edit(*second, rng,
                                critical=rng.random() < 0.5))
    elif kind == "repeat" and rng.random() < 0.3:
        delays.append(_edit(*first, rng))
    elif kind == "clock":
        clock = _clock_edit(graph, rng)
        if rng.random() < 0.5:
            delays = []
    history.extend((d.driver, d.sink) for d in delays)
    return delays, clock


def _apply(graph, delays, clock):
    """The functional reference: clock edits first, then the delays."""
    if clock:
        graph = apply_clock_updates(graph, clock)
    if delays:
        graph = apply_delay_updates(graph, delays)
    return graph


# ----------------------------------------------------------------------
# What a fresh sweep of the edited graph holds
# ----------------------------------------------------------------------
def _fresh_state(graph, mode, backend):
    return build_mode_state(graph, mode, backend, True, True)


def _times(state, row):
    row_state = state.row(row)
    return (row_state.time0 if row < len(state.levels)
            else row_state.time)


def _columns(state, row):
    """A row's arrival columns, then its cost column."""
    row_state = state.row(row)
    if row < len(state.levels):
        return ([row_state.time0, row_state.from0, row_state.group0,
                 row_state.time1, row_state.from1, row_state.group1],
                row_state.cost0)
    return [row_state.time, row_state.from_pin], row_state.cost0


def _assert_exact_outside_pending(solo):
    """Every pin outside the pending region holds the fresh sweep's
    tuples; with no region pending, every cost does too."""
    outside = [pin for pin in range(solo.graph.num_pins)
               if pin not in solo._pending]
    for mode, state in solo._states.items():
        fresh = _fresh_state(solo.graph, mode, solo.backend)
        for row in range(state.num_rows):
            (got, got_cost), (want, want_cost) = (_columns(state, row),
                                                  _columns(fresh, row))
            for a, b in zip(got, want):
                assert [a[pin] for pin in outside] == \
                    [b[pin] for pin in outside], (mode, row)
            if not solo._pending:
                assert got_cost == want_cost, (mode, row)


@pytest.fixture
def exact_sigma_inputs(monkeypatch):
    """Check every sigma bound's arrival reads at each edited driver:
    the session's row must hold the fresh sweep's post-edit time, and
    in a delay-only round the old time sigma falls back to must be the
    fresh sweep's of the design before the round."""
    real_sigma = session_module.sigma_min
    real_apply = session_module.CpprSession._apply_edits
    before = {}  # id(session graph) -> fresh pre-round states

    def apply_edits(self, delays, clock):
        before[id(self.graph)] = None if clock else {
            mode: _fresh_state(self.graph, mode, self.backend)
            for mode in self._states}
        return real_apply(self, delays, clock)

    def sigma_min(graph, core, state, rows, runs, old_times, clock_period,
                  substrate, cone=None):
        fresh = _fresh_state(graph, state.mode, substrate)
        pre = before[id(graph)]
        drivers = [u for u, _v, _pess in runs]
        for row in rows:
            got, want = _times(state, row), _times(fresh, row)
            assert [got[u] for u in drivers] == \
                [want[u] for u in drivers], (state.mode, row)
            if pre is not None:
                old = _times(pre[state.mode], row)
                assert [old_times[row].get(u, got[u]) for u in drivers] \
                    == [old[u] for u in drivers], (state.mode, row)
        return real_sigma(graph, core, state, rows, runs, old_times,
                          clock_period, substrate, cone)

    monkeypatch.setattr(session_module.CpprSession, "_apply_edits",
                        apply_edits)
    monkeypatch.setattr(session_module, "sigma_min", sigma_min)


# ----------------------------------------------------------------------
# The differential driver
# ----------------------------------------------------------------------
def _solos(session):
    return getattr(session, "sessions", {None: session})


def _read(session, k, mode, corner):
    if corner is None:
        return session.top_paths(k, mode)
    return session.top_paths(k, mode, corner=corner)


def _summary(summary):
    row = tuple(summary[key] for key in SUMMARY_KEYS)
    corners = summary.get("corners", {})
    return row, {name: _summary(sub) for name, sub in corners.items()}


def _drive(session, twin, refs, options, rng, seen, rounds=8):
    """Run random rounds and reads on ``session`` and its twin.

    ``refs`` maps each corner (``None`` for a single-corner session)
    to the ``(graph, constraints)`` a fresh engine reads.  The twin
    flushes before every round, which makes it the eager session.
    """
    corners = list(refs)
    history: list[tuple[int, int]] = []
    for _round_index in range(rounds):
        base = refs[corners[0]][0]
        delays, clock = _round(base, rng, history)
        if not delays and not clock:
            continue
        built = any(solo._states for solo in _solos(session).values())
        for solo in _solos(twin).values():
            solo._flush()
        with collecting() as col:
            summary = session.update(delays=delays, clock=clock)
        want = twin.update(delays=delays, clock=clock)
        assert _summary(summary) == _summary(want)
        profile = col.profile()
        seen["deferred"] += profile.counter(DEFERRED)
        seen["flushed"] += profile.counter(FLUSHED)
        seen["eager"] += (built and not summary["full_rebuild"]
                          and profile.counter(DEFERRED) == 0)
        refs = {name: (_apply(graph, delays, clock), constraints)
                for name, (graph, constraints) in refs.items()}
        if rng.random() < 0.4:
            continue  # no read: the pending region piles up
        for _read_index in range(rng.randint(1, 2)):
            # A k no earlier read asked for re-runs every family.
            k = rng.choice((2, 3, 5, 6 + _round_index))
            mode, corner = rng.choice(MODES), rng.choice(corners)
            with collecting() as col:
                got = fingerprint(_read(session, k, mode, corner))
            seen["read_flushes"] += col.profile().counter(FLUSHED)
            _assert_exact_outside_pending(_solos(session)[corner])
            _read(twin, k, mode, corner)
            graph, constraints = refs[corner]
            fresh = CpprEngine(TimingAnalyzer(graph, constraints), options)
            assert got == fingerprint(fresh.top_paths(k, mode)), (
                k, mode, corner)


def _assert_exercised(seen):
    """The deferred, flushed and eager paths all ran."""
    assert seen["deferred"] > 0, seen
    assert seen["flushed"] > 0, seen
    assert seen["eager"] > 0, seen
    assert seen["read_flushes"] > 0, seen


@pytest.mark.usefixtures("exact_sigma_inputs")
@pytest.mark.parametrize("backend", BACKENDS)
def test_session_matches_fresh_and_eager(backend):
    seen = Counter()

    @settings(deadline=None)
    @given(seed=st.integers(0, 10_000), gates=st.sampled_from((12, 30, 60)))
    def check(seed, gates):
        graph, constraints = random_small(seed, num_gates=gates)
        options = CpprOptions(backend=backend)
        engine = CpprEngine(TimingAnalyzer(graph, constraints), options)
        session, twin = engine.session(), engine.session()
        rng = random.Random(seed)
        for k, mode in ((3, "setup"), (3, "hold")):
            for s in (session, twin):
                s.top_paths(k, mode)
        _drive(session, twin, {None: (graph, constraints)}, options, rng,
               seen)

    check()
    _assert_exercised(seen)


@pytest.mark.usefixtures("exact_sigma_inputs")
@pytest.mark.parametrize("backend", BACKENDS)
def test_multi_corner_session_matches_fresh_and_eager(backend):
    seen = Counter()

    @settings(deadline=None)
    @given(seed=st.integers(0, 10_000), count=st.integers(2, 3))
    def check(seed, count):
        graph, constraints = random_small(seed)
        analyzer = TimingAnalyzer(graph, constraints)
        corners = random_corner_set(graph, seed=seed, count=count)
        options = CpprOptions(backend=backend)
        engine = CpprEngine(analyzer, CpprOptions(backend=backend,
                                                  corners=corners))
        session, twin = engine.session(), engine.session()
        for name in corners.names:
            for s in (session, twin):
                s.top_paths(3, "setup", corner=name)
        refs = {name: (realized.graph, realized.constraints)
                for name, realized
                in corners.realize(analyzer, backend).items()}
        _drive(session, twin, refs, options, random.Random(seed), seen,
               rounds=6)

    check()
    _assert_exercised(seen)


def test_batch_with_a_missing_edge_applies_nothing():
    """Every edit resolves before any applies, so a batch naming a
    missing edge raises and leaves the session on the unedited design."""
    graph, constraints = random_small(23)
    engine = CpprEngine(TimingAnalyzer(graph, constraints),
                        CpprOptions(backend="scalar"))
    session = engine.session()
    session.top_paths(5, "setup")
    u = next(pin for pin in range(graph.num_pins) if graph.fanout[pin])
    v, early, late = graph.fanout[u][0]
    with pytest.raises(AnalysisError, match="no data edge"):
        session.update(delays=[DelayUpdate(u, v, early, late + 3.0),
                               DelayUpdate(u, u, 0.0, 0.1)])
    assert session.basis() == (0, 0)
    assert session.graph.fanout[u][0] == (v, early, late)
    assert fingerprint(session.top_paths(7, "setup")) == \
        fingerprint(engine.top_paths(7, "setup"))
