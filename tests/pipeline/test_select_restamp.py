"""Select answers after an ECO round (docs/PROOFS.md L8).

A clock-free update that keeps every family a memoized ``(mode, k)``
select answer merged restamps that answer to the new basis, so the
next read runs no select at all; every other update drops it.  Every
report here is compared with a fresh engine on the edited design."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (CpprEngine, CpprOptions, DelayUpdate, TimingAnalyzer,
                   faults)
from repro.corners import Corner, CornerSet
from repro.io.reports import paths_to_dicts
from repro.obs import collecting
from repro.sta.incremental import apply_clock_updates, apply_delay_updates
from tests.corners.helpers import fingerprint, random_edits
from tests.helpers import demo_design, random_small

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

RESTAMPED = "pipeline.select.restamped"


def _fresh(graph, constraints, options, batches, k, mode, clock=None):
    """A cold engine's report after ``clock`` and the delay batches."""
    edited = apply_clock_updates(graph, clock) if clock else graph
    for batch in batches:
        edited = apply_delay_updates(edited, batch)
    engine = CpprEngine(TimingAnalyzer(edited, constraints), options)
    return fingerprint(engine.top_paths(k, mode))


def _warm(engine, reads):
    session = engine.session()
    for k, mode in reads:
        session.top_paths(k, mode)
    return session


def _shrink(u, v, early, late):
    """Faster for setup; hold's delay stays."""
    return DelayUpdate(u, v, early, max(early, 0.9 * late))


def _slow(u, v, early, late):
    """Slower for setup; hold's delay stays."""
    return DelayUpdate(u, v, early, late + 0.5)


def _dropped(session, edit):
    """The cached family keys that ``update(edit)`` does not keep."""
    cached = {key for key, _basis, _value in session._families.entries()}
    session.update(delays=[edit])
    kept = {key for key, basis, _value in session._families.entries()
            if basis == session.basis()}
    return cached - kept


def _find_edit(engine, reads, make, accept):
    """The first one-edge edit ``make(u, v, early, late)`` whose round,
    on a session warmed by ``reads``, drops a family set ``accept``
    takes."""
    graph = engine.analyzer.graph
    for u in range(graph.num_pins):
        for v, early, late in graph.fanout[u]:
            edit = make(u, v, early, late)
            if accept(_dropped(_warm(engine, reads), edit)):
                return edit
    raise AssertionError("no edit of the wanted kind on this design")


def _keeps_all(dropped):
    return not dropped


class TestKeptRound:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_entry_restamps_and_serves(self, backend):
        graph, constraints = random_small(23)
        options = CpprOptions(backend=backend)
        engine = CpprEngine(TimingAnalyzer(graph, constraints), options)
        reads = [(6, "setup"), (6, "hold"), (8, "setup")]
        edit = _find_edit(engine, reads, _shrink, _keeps_all)
        session = _warm(engine, reads)
        with collecting() as col:
            summary = session.update(delays=[edit])
        assert summary["families_dropped"] == 0
        # One restamp per (mode, k) entry.
        assert col.profile().counter(RESTAMPED) == len(reads)
        want = [_fresh(graph, constraints, options, [[edit]], k, mode)
                for k, mode in reads]
        hits = session._select.hits
        with collecting() as col:
            got = [fingerprint(session.top_paths(k, mode))
                   for k, mode in reads]
        assert got == want
        assert session._select.hits == hits + len(reads)
        # Served reads run no select at all.
        profile = col.profile()
        assert profile.counter("select.considered") == 0
        assert not [span for span in profile.iter_spans()
                    if span.name == "pipeline.select"]

    def test_restamped_entry_serves_a_prefix(self):
        graph, constraints = random_small(29)
        options = CpprOptions(backend="scalar")
        engine = CpprEngine(TimingAnalyzer(graph, constraints), options)
        reads = [(10, "setup")]
        edit = _find_edit(engine, reads, _shrink, _keeps_all)
        session = _warm(engine, reads)
        with collecting() as col:
            session.update(delays=[edit])
        assert col.profile().counter(RESTAMPED) == 1
        hits = session._select.hits
        assert fingerprint(session.top_paths(5, "setup")) == _fresh(
            graph, constraints, options, [[edit]], 5, "setup")
        assert session._select.hits == hits + 1
        assert [key for key, _basis, _value
                in session._select.entries()] == [("setup", 10)]

    def test_evicted_family_counts_as_dropped(self):
        """A family the LRU evicted is missing under the new basis, so
        its entry drops even though the round dropped nothing."""
        graph, constraints = random_small(23)
        options = CpprOptions(backend="scalar")
        engine = CpprEngine(TimingAnalyzer(graph, constraints), options)
        # Seven (mode, k) entries of D + 2 = 5 families each overflow
        # the 32-entry family cache: the first entry loses 3.
        reads = [(k, mode) for k in (1, 2, 3) for mode in ("setup", "hold")]
        reads.append((4, "setup"))
        edit = _find_edit(engine, reads, _shrink, _keeps_all)
        session = _warm(engine, reads)
        assert session._families.evictions > 0
        with collecting() as col:
            session.update(delays=[edit])
        assert col.profile().counter(RESTAMPED) == len(reads) - 1
        assert ("setup", 1) not in [key for key, _basis, _value
                                    in session._select.entries()]
        for k, mode in reads:
            assert fingerprint(session.top_paths(k, mode)) == _fresh(
                graph, constraints, options, [[edit]], k, mode)


class TestDroppedRound:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_one_dropped_family_drops_its_entry(self, backend):
        graph, constraints = random_small(29)
        options = CpprOptions(backend=backend)
        engine = CpprEngine(TimingAnalyzer(graph, constraints), options)
        reads = [(2, "setup"), (2, "hold")]

        def one_setup_family(dropped):
            return len(dropped) == 1 and all(key[1] == "setup"
                                             for key in dropped)

        edit = _find_edit(engine, reads, _slow, one_setup_family)
        session = _warm(engine, reads)
        with collecting() as col:
            summary = session.update(delays=[edit])
        assert summary["families_dropped"] == 1
        # Only the hold entry kept every family it merged.
        assert col.profile().counter(RESTAMPED) == 1
        misses = session._select.misses
        with collecting() as col:
            got = fingerprint(session.top_paths(2, "setup"))
        assert got == _fresh(graph, constraints, options, [[edit]], 2,
                             "setup")
        assert session._select.misses == misses + 1
        assert col.profile().counter("pipeline.families.rerun") == 1
        assert col.profile().counter("select.considered") > 0
        hits = session._select.hits
        assert fingerprint(session.top_paths(2, "hold")) == _fresh(
            graph, constraints, options, [[edit]], 2, "hold")
        assert session._select.hits == hits + 1

    @pytest.mark.parametrize("identity", [True, False],
                             ids=["same-delays", "new-delays"])
    def test_clock_edit_never_restamps(self, identity):
        graph, constraints = random_small(67)
        options = CpprOptions(backend="scalar")
        session = _warm(CpprEngine(TimingAnalyzer(graph, constraints),
                                   options), [(5, "setup"), (5, "hold")])
        tree = session.graph.clock_tree
        shift = 0.0 if identity else 0.2
        clock = {tree.names[1]: (tree.delays_early[1] + shift,
                                 tree.delays_late[1] + shift)}
        with collecting() as col:
            summary = session.update(clock=clock)
        if identity:
            assert summary["families_dropped"] == 0
        assert col.profile().counter(RESTAMPED) == 0
        assert not session._select.entries()
        misses = session._select.misses
        for mode in ("setup", "hold"):
            assert fingerprint(session.top_paths(5, mode)) == _fresh(
                graph, constraints, options, [], 5, mode, clock=clock)
        assert session._select.misses == misses + 2

    def test_output_tests_never_restamp(self):
        graph, constraints = random_small(31)
        options = CpprOptions(backend="scalar", include_output_tests=True)
        engine = CpprEngine(TimingAnalyzer(graph, constraints), options)
        reads = [(4, "setup")]
        edit = _find_edit(engine, reads, _shrink, _keeps_all)
        session = _warm(engine, reads)
        with collecting() as col:
            summary = session.update(delays=[edit])
        assert summary["families_dropped"] == 0
        assert col.profile().counter(RESTAMPED) == 0
        misses = session._select.misses
        assert fingerprint(session.top_paths(4, "setup")) == _fresh(
            graph, constraints, options, [[edit]], 4, "setup")
        assert session._select.misses == misses + 1


class TestStaleSelect:
    def test_poisoned_restamp_is_detected(self):
        """The fault fires on the select restamp itself, after every
        family restamp of the round."""
        graph, constraints = random_small(23)
        options = CpprOptions(backend="scalar")
        engine = CpprEngine(TimingAnalyzer(graph, constraints), options)
        reads = [(6, "setup")]
        edit = _find_edit(engine, reads, _shrink, _keeps_all)
        session = _warm(engine, reads)
        families = len(session._families)
        with faults.inject(
                f"pipeline.stale_artifact:times=1,after={families}"):
            summary = session.update(delays=[edit])
        assert summary["families_kept"] == families
        with collecting() as col:
            got = fingerprint(session.top_paths(6, "setup"))
        profile = col.profile()
        assert profile.counter("pipeline.select.stale.detected") == 1
        assert profile.counter("select.considered") > 0
        assert session._families.stale_detected == 0
        assert got == _fresh(graph, constraints, options, [[edit]], 6,
                             "setup")

    def test_entry_under_another_basis_is_dropped(self):
        """A select entry stored poisoned (recorded under no real
        basis) is dropped by the next round, not restamped."""
        graph, constraints = random_small(23)
        options = CpprOptions(backend="scalar")
        engine = CpprEngine(TimingAnalyzer(graph, constraints), options)
        reads = [(6, "setup")]
        edit = _find_edit(engine, reads, _shrink, _keeps_all)
        session = engine.session()
        # The first read stores D + 2 families, then the select entry.
        families = session.graph.clock_tree.num_levels + 2
        with faults.inject(
                f"pipeline.stale_artifact:times=1,after={families}"):
            session.top_paths(6, "setup")
        [(_key, recorded, _value)] = session._select.entries()
        assert recorded != session.basis()
        with collecting() as col:
            summary = session.update(delays=[edit])
        assert summary["families_dropped"] == 0
        assert col.profile().counter(RESTAMPED) == 0
        assert not session._select.entries()
        with collecting() as col:
            got = fingerprint(session.top_paths(6, "setup"))
        assert col.profile().counter("select.considered") > 0
        assert got == _fresh(graph, constraints, options, [[edit]], 6,
                             "setup")


class TestMultiCorner:
    def test_only_the_keeping_corner_restamps(self):
        graph, constraints = random_small(55)
        analyzer = TimingAnalyzer(graph, constraints)

        def kept_round(u, v, early, late):
            """typ's round sets the edge to its own delays; the "slow"
            corner, whose delta makes every path through the edge
            critical, pessimizes over its old value."""
            corners = CornerSet([Corner("typ"), Corner(
                "slow", [DelayUpdate(u, v, early, late + 2.0)])])
            session = CpprEngine(analyzer, CpprOptions(
                backend="scalar", corners=corners)).session()
            for name in corners.names:
                session.top_paths(3, "setup", corner=name)
            edit = DelayUpdate(u, v, early, late)
            with collecting() as col:
                rows = session.update(delays=[edit])["corners"]
            split = (rows["typ"]["families_dropped"] == 0
                     and rows["slow"]["families_dropped"] > 0)
            return split, corners, session, edit, col.profile()

        for u in range(graph.num_pins):
            rounds = (kept_round(u, v, early, late)
                      for v, early, late in graph.fanout[u])
            found = next((row for row in rounds if row[0]), None)
            if found is not None:
                break
        assert found is not None, "no edit splits the corners"
        _split, corners, session, edit, profile = found

        assert profile.counter(RESTAMPED) == 1
        typ, slow = session.sessions["typ"], session.sessions["slow"]
        assert [(key, recorded) for key, recorded, _value
                in typ._select.entries()] == [(("setup", 3), typ.basis())]
        assert not slow._select.entries()
        realized = corners.realize(analyzer, "scalar")
        for name in corners.names:
            solo = CpprEngine(realized[name],
                              CpprOptions(backend="scalar")).session()
            solo.update(delays=[edit])
            assert fingerprint(session.top_paths(3, "setup",
                                                 corner=name)) == \
                fingerprint(solo.top_paths(3, "setup")), name


@pytest.mark.parametrize("backend", BACKENDS)
def test_random_delay_ecos_match_fresh(backend):
    """Random delay-only ECO sequences: every read equals a fresh
    engine, and some rounds restamp (so the check is not vacuous)."""
    restamps = []

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def check(seed):
        graph, constraints = random_small(seed)
        options = CpprOptions(backend=backend)
        session = CpprEngine(TimingAnalyzer(graph, constraints),
                             options).session()
        rng = random.Random(seed)
        applied = []
        for mode in ("setup", "hold"):
            session.top_paths(3, mode)
        for _round in range(4):
            edits = random_edits(session.graph, rng, rng.randint(1, 2),
                                 spread=0.1)
            with collecting() as col:
                session.update(delays=edits)
            restamps.append(col.profile().counter(RESTAMPED))
            applied.append(edits)
            for k, mode in ((3, "setup"), (2, "setup"), (3, "hold")):
                assert fingerprint(session.top_paths(k, mode)) == \
                    _fresh(graph, constraints, options, applied, k, mode)

    check()
    assert sum(restamps) > 0


def test_server_rank_pages_after_a_kept_round():
    from tests.server.conftest import add_demo, make_service

    service = make_service()
    add_demo(service)
    _, payload = service.handle("POST", "/sessions", {"design": "demo"})
    sid = payload["session"]["sid"]
    service.handle("POST", f"/sessions/{sid}/rank_paths", {"k": 4})
    # A primary-output edge: no flip-flop captures through it.
    eco = {"driver": "g2/Y", "sink": "out0", "early": 0.1, "late": 0.15}
    with collecting() as col:
        status, payload = service.handle(
            "POST", f"/sessions/{sid}/update", {"delays": [eco]})
    assert status == 200
    assert payload["update"]["families_dropped"] == 0
    assert col.profile().counter(RESTAMPED) == 1

    graph, constraints = demo_design()
    edited = apply_delay_updates(graph, [DelayUpdate(**eco)])
    engine = CpprEngine(TimingAnalyzer(edited, constraints), CpprOptions())
    want = paths_to_dicts(engine.analyzer, engine.top_paths(4, "setup"))
    pages = []
    for page in range(2):
        status, payload = service.handle(
            "POST", f"/sessions/{sid}/rank_paths",
            {"k": 4, "page": page, "page_size": 2})
        assert status == 200
        pages.extend(payload["paths"])
    assert pages == want
