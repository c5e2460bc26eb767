"""The corner model itself: names, sets, realization, engine plumbing.

Covers the contracts ``docs/MCMM.md`` documents: corner names are
label-safe, a :class:`CornerSet` is ordered and uniquely named,
realization shares one :class:`CoreStructure` across every corner (the
precondition of the fused sweep) and fails eagerly with the corner's
name prefixed, and the engine's corner axis — validation, the
``(corner, mode, k)`` memo key, per-corner metrics, profile metadata —
never aliases one corner's answers to another's.
"""

from __future__ import annotations

import random

import pytest

from tests.corners.helpers import fingerprint, random_corner_set
from tests.helpers import demo_analyzer, random_small

from repro import CpprEngine, CpprOptions, TimingAnalyzer
from repro.corners import NO_CORNER, Corner, CornerSet
from repro.exceptions import AnalysisError
from repro.sta.incremental import DelayUpdate


class TestCornerNames:
    def test_valid_name(self):
        assert Corner("slow_0.9v").name == "slow_0.9v"

    @pytest.mark.parametrize("bad", ["", None, 7])
    def test_non_string_or_empty_rejected(self, bad):
        with pytest.raises(AnalysisError, match="non-empty string"):
            Corner(bad)

    def test_reserved_no_corner_label_rejected(self):
        with pytest.raises(AnalysisError, match="reserved"):
            Corner(NO_CORNER)

    @pytest.mark.parametrize("bad", ["a b", "x=y", "c{1}", "p,q",
                                     "tab\tname"])
    def test_label_breaking_characters_rejected(self, bad):
        with pytest.raises(AnalysisError, match="may not contain"):
            Corner(bad)

    def test_delays_must_be_delay_updates(self):
        with pytest.raises(AnalysisError, match="DelayUpdate"):
            Corner("c", delays=[("u", "v", 0.1, 0.2)])


class TestCornerSet:
    def test_empty_set_rejected(self):
        with pytest.raises(AnalysisError, match="at least one"):
            CornerSet([])

    def test_duplicate_names_rejected(self):
        with pytest.raises(AnalysisError, match="duplicate"):
            CornerSet([Corner("a"), Corner("a")])

    def test_order_and_lookup(self):
        corners = CornerSet([Corner("fast"), Corner("slow")])
        assert corners.names == ("fast", "slow")
        assert len(corners) == 2
        assert "slow" in corners
        assert corners["fast"].name == "fast"

    def test_unknown_lookup_lists_valid_names(self):
        corners = CornerSet([Corner("fast"), Corner("slow")])
        with pytest.raises(AnalysisError,
                           match="unknown corner 'wc'.*fast, slow"):
            corners["wc"]


class TestRealize:
    def test_array_realization_shares_one_structure(self):
        pytest.importorskip("numpy", exc_type=ImportError)
        from repro.core.arrays import get_core

        graph, constraints = random_small(5)
        analyzer = TimingAnalyzer(graph, constraints)
        corners = random_corner_set(graph, seed=1, count=3)
        realized = corners.realize(analyzer, "array")
        base = get_core(graph).structure
        assert set(realized) == set(corners.names)
        for name, corner_analyzer in realized.items():
            derived = get_core(corner_analyzer.graph)
            assert derived.structure is base, name

    def test_empty_delta_shares_values_semantics(self):
        analyzer = demo_analyzer()
        realized = CornerSet([Corner("typ")]).realize(analyzer, "scalar")
        # An empty delta names the base design itself.
        assert fingerprint(CpprEngine(realized["typ"]).top_paths(
            3, "setup")) == fingerprint(
                CpprEngine(analyzer).top_paths(3, "setup"))

    def test_unknown_pin_fails_eagerly_with_corner_name(self):
        analyzer = demo_analyzer()
        bad = Corner("wc", delays=[DelayUpdate("nope/X", "g1/A0",
                                               0.1, 0.2)])
        with pytest.raises(AnalysisError, match="corner 'wc'"):
            CornerSet([bad]).realize(analyzer, "scalar")


class TestEngineCornerAxis:
    def _engine(self, seed: int = 11, count: int = 3, **options):
        graph, constraints = random_small(seed)
        corners = random_corner_set(graph, seed=seed, count=count)
        analyzer = TimingAnalyzer(graph, constraints)
        return CpprEngine(analyzer,
                          CpprOptions(corners=corners, **options)), corners

    def test_options_reject_non_corner_set(self):
        graph, constraints = random_small(3)
        with pytest.raises(AnalysisError, match="CornerSet"):
            CpprEngine(TimingAnalyzer(graph, constraints),
                       CpprOptions(corners=["slow"]))

    def test_construction_validates_corners_eagerly(self):
        graph, constraints = random_small(3)
        bad = CornerSet([Corner("wc", delays=[
            DelayUpdate("missing/Q", "also/missing", 0.0, 0.1)])])
        with pytest.raises(AnalysisError, match="corner 'wc'"):
            CpprEngine(TimingAnalyzer(graph, constraints),
                       CpprOptions(corners=bad))

    def test_query_without_corner_name_is_rejected(self):
        engine, _corners = self._engine()
        with pytest.raises(AnalysisError, match="pass corner=<name>"):
            engine.top_paths(3, "setup")

    def test_unknown_corner_is_rejected(self):
        engine, _corners = self._engine()
        with pytest.raises(AnalysisError, match="unknown corner"):
            engine.top_paths(3, "setup", corner="nope")

    def test_corner_argument_without_corners_is_rejected(self):
        graph, constraints = random_small(3)
        engine = CpprEngine(TimingAnalyzer(graph, constraints))
        with pytest.raises(AnalysisError, match="no corners configured"):
            engine.top_paths(3, "setup", corner="typ")
        with pytest.raises(AnalysisError, match="no corners configured"):
            engine.top_paths_by_corner(3, "setup")

    def test_memo_key_includes_corner(self):
        """Per-corner queries never alias the memo (satellite 1)."""
        engine, corners = self._engine(seed=21)
        answers = {name: fingerprint(engine.top_paths(4, "setup",
                                                      corner=name))
                   for name in corners.names}
        # At least one corner must differ from typ, else the test
        # could pass by aliasing.
        assert any(answers[name] != answers["typ"]
                   for name in corners.names if name != "typ")
        hits_before = engine._topk_cache.hits
        for name in corners.names:
            again = fingerprint(engine.top_paths(4, "setup",
                                                 corner=name))
            assert again == answers[name], name
        assert engine._topk_cache.hits >= hits_before + len(corners)

    def test_merged_worst_is_sorted_union_prefix(self):
        engine, _corners = self._engine(seed=22)
        k = 5
        by_corner = engine.top_paths_by_corner(k, "setup")
        merged = engine.merged_worst(k, "setup")
        want = sorted(((name, path) for name, paths in by_corner.items()
                       for path in paths),
                      key=lambda entry: (entry[1].key(), entry[0]))[:k]
        assert [(name, fingerprint([p])) for name, p in merged] == \
            [(name, fingerprint([p])) for name, p in want]

    def test_merged_worst_requires_corners(self):
        graph, constraints = random_small(3)
        engine = CpprEngine(TimingAnalyzer(graph, constraints))
        with pytest.raises(AnalysisError, match="no corners configured"):
            engine.merged_worst(3, "setup")

    def test_profile_meta_names_corners(self):
        engine, corners = self._engine(seed=23)
        meta = engine.profile_meta()
        assert meta["corners"] == (f"{len(corners)}: "
                                   + ", ".join(corners.names))

    def test_queries_metric_labeled_per_corner(self):
        from repro.obs.collector import collecting

        engine, corners = self._engine(seed=24)
        with collecting() as col:
            engine.top_paths(3, "setup", corner="typ")
            engine.top_paths_by_corner(3, "hold")
        counters = col.profile().counters
        assert counters["engine.queries{corner=typ,mode=setup}"] == 1
        for name in corners.names:
            assert counters[
                f"engine.queries{{corner={name},mode=hold}}"] == 1

    def test_reports_render_per_corner_and_merged(self):
        engine, corners = self._engine(seed=25)
        text = engine.report(2, "setup", corner="typ")
        assert "[corner typ]" in text
        merged = engine.merged_worst_report(3, "setup")
        assert "merged worst" in merged
        assert "[corner" in merged

    def test_descriptor_carries_corner_label(self):
        pytest.importorskip("numpy", exc_type=ImportError)
        from repro.core.batched import propagate_dual_batched
        from repro.cppr import shard
        from repro.sta.modes import AnalysisMode

        graph, constraints = random_small(26)
        analyzer = TimingAnalyzer(graph, constraints)
        engine = CpprEngine(analyzer, CpprOptions(backend="array"))
        batch = propagate_dual_batched(analyzer.graph,
                                       AnalysisMode.SETUP)
        ctx = shard.open_query(analyzer, batch, publish_batch=False)
        try:
            desc = ctx.descriptor(("level", 0), 3, AnalysisMode.SETUP,
                                  None, "array", False, corner="slow")
            assert desc.corner == "slow"
            default = ctx.descriptor(("level", 0), 3,
                                     AnalysisMode.SETUP, None, "array",
                                     False)
            assert default.corner == "-"
        finally:
            ctx.close()


class TestSessionCornerAxis:
    def test_session_returns_multi_corner_session(self):
        graph, constraints = random_small(31)
        corners = random_corner_set(graph, seed=31, count=2)
        engine = CpprEngine(TimingAnalyzer(graph, constraints),
                            CpprOptions(corners=corners))
        session = engine.session()
        from repro.pipeline.session import MultiCornerSession
        assert isinstance(session, MultiCornerSession)
        assert session.corners == corners.names

    def test_session_query_validation(self):
        graph, constraints = random_small(31)
        corners = random_corner_set(graph, seed=31, count=2)
        session = CpprEngine(TimingAnalyzer(graph, constraints),
                             CpprOptions(corners=corners)).session()
        with pytest.raises(AnalysisError, match="pass corner=<name>"):
            session.top_paths(3, "setup")
        with pytest.raises(AnalysisError, match="unknown corner"):
            session.top_paths(3, "setup", corner="nope")

    def test_dirty_pins_metric_labeled_per_corner(self):
        from repro.obs.collector import collecting

        graph, constraints = random_small(32)
        corners = random_corner_set(graph, seed=32, count=2)
        session = CpprEngine(TimingAnalyzer(graph, constraints),
                             CpprOptions(corners=corners)).session()
        for name in corners.names:
            session.top_paths(3, "setup", corner=name)
        edits = [DelayUpdate(u, v, e, l)
                 for u in range(session.sessions["typ"].graph.num_pins)
                 for (v, e, l) in
                 session.sessions["typ"].graph.fanout[u]][:1]
        with collecting() as col:
            session.update(delays=edits)
        counters = col.profile().counters
        labeled = [name for name in counters
                   if name.startswith("replay.dirty_pins{")]
        for name in corners.names:
            assert any(f"corner={name}" in sample
                       for sample in labeled), (name, labeled)
