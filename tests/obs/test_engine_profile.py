"""Engine-level observability tests.

Covers the acceptance criterion that counter totals are deterministic
and executor-independent: the same design/seed must produce identical
counters under the serial, thread and (where available) process
executors, because every pass does the same work regardless of where it
runs and the collector merges per-task events in task order.
"""

from __future__ import annotations

import pytest

from repro import CpprEngine, CpprOptions, TimingAnalyzer
from repro.core import HAVE_NUMPY
from repro.cppr.parallel import available_executors
from repro.obs import Profile, active_collector, collecting
from tests.helpers import demo_analyzer, random_small

EXECUTORS = available_executors()


def _profile_for(executor: str, seed: int = 7, k: int = 5,
                 mode: str = "setup") -> tuple[list[float], Profile]:
    """Fresh analyzer + engine per run so caches don't leak across runs."""
    graph, constraints = random_small(seed)
    engine = CpprEngine(TimingAnalyzer(graph, constraints),
                        CpprOptions(executor=executor, workers=2))
    paths, profile = engine.profiled_top_paths(k, mode)
    return [p.slack for p in paths], profile


class TestExecutorDeterminism:
    def test_serial_runs_are_identical(self):
        _, first = _profile_for("serial")
        _, second = _profile_for("serial")
        assert first.counters == second.counters
        assert [s.name for s in first.iter_spans()] == \
            [s.name for s in second.iter_spans()]

    @pytest.mark.parametrize("executor",
                             [e for e in EXECUTORS if e != "serial"])
    def test_counters_match_serial(self, executor):
        slacks_serial, serial = _profile_for("serial")
        slacks_other, other = _profile_for(executor)
        assert slacks_other == slacks_serial
        assert other.counters == serial.counters
        assert sorted(s.name for s in other.iter_spans()) == \
            sorted(s.name for s in serial.iter_spans())

    @pytest.mark.parametrize("executor",
                             [e for e in EXECUTORS if e != "serial"])
    def test_span_order_follows_task_order(self, executor):
        """Per-task spans are merged in task order, not completion order."""
        _, serial = _profile_for("serial")
        _, other = _profile_for(executor)

        def candidate_children(profile: Profile) -> list[str]:
            for node in profile.iter_spans():
                if node.name == "candidates":
                    return [c.name for c in node.children]
            raise AssertionError("no candidates span")

        assert candidate_children(other) == candidate_children(serial)


class TestProfileContents:
    def test_expected_counters_present(self):
        _, profile = _profile_for("serial")
        for name in ("heap.push", "deviation.seeds",
                     "deviation.edges_explored", "propagation.seeds",
                     "propagation.pins_visited", "select.considered",
                     "select.selected", "candidates.produced.level",
                     "candidates.produced.self_loop",
                     "candidates.produced.primary_input"):
            assert profile.counter(name) > 0, name

    def test_span_tree_shape(self):
        _, profile = _profile_for("serial")
        names = [s.name for s in profile.iter_spans()]
        assert names[0] == "top_paths"
        assert "candidates" in names
        assert "level[0]" in names
        assert "self_loop" in names
        assert "primary_input" in names
        assert "select" in names
        assert "search" in names
        # Every scalar pass propagates on its own; the array backend
        # sweeps once and every pass reads its row slice.
        if HAVE_NUMPY:
            assert "propagate.slice" in names
            assert "propagate" not in names
        else:
            assert "propagate" in names

    def test_selected_counter_matches_result(self):
        slacks, profile = _profile_for("serial", k=4)
        assert profile.counter("select.selected") == len(slacks)


class TestEngineProfileApi:
    def test_no_collector_means_no_profile(self):
        engine = CpprEngine(demo_analyzer())
        engine.top_paths(3, "setup")
        assert engine.last_profile is None

    def test_last_profile_set_under_collecting(self):
        engine = CpprEngine(demo_analyzer())
        with collecting() as col:
            engine.top_paths(3, "setup")
        assert engine.last_profile is not None
        assert engine.last_profile.counter("heap.push") > 0
        assert engine.last_profile.counters == col.profile().counters

    def test_profiled_top_paths(self):
        engine = CpprEngine(demo_analyzer())
        plain = engine.top_slacks(3, "setup")
        paths, profile = engine.profiled_top_paths(3, "setup")
        assert [p.slack for p in paths] == plain
        assert profile.counter("select.selected") == len(paths)
        assert engine.last_profile is not None
        assert engine.last_profile.counters == profile.counters
        # The temporary collector must not stay installed.
        assert active_collector() is None

    def test_results_identical_with_and_without_collector(self):
        engine = CpprEngine(demo_analyzer())
        plain = engine.top_slacks(5, "hold")
        paths, _profile = engine.profiled_top_paths(5, "hold")
        assert [p.slack for p in paths] == plain
