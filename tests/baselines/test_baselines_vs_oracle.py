"""Every baseline timer must agree exactly with the exhaustive oracle."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import (BlockBasedTimer, BranchBoundTimer, ExhaustiveTimer,
                   PairEnumTimer, TimingAnalyzer)
from repro.cppr.parallel import available_executors
from repro.exceptions import AnalysisError
from repro.obs.collector import collecting
from repro.sta.modes import AnalysisMode
from tests.helpers import assert_slacks_equal, demo_analyzer, random_small

MODES = [AnalysisMode.SETUP, AnalysisMode.HOLD]
TIMERS = {
    "pair_enum": PairEnumTimer,
    "block_based": BlockBasedTimer,
    "branch_bound": BranchBoundTimer,
}


def analyzer_for(seed, **overrides):
    graph, constraints = random_small(seed, **overrides)
    return TimingAnalyzer(graph, constraints)


@pytest.mark.parametrize("name", TIMERS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("k", [1, 4, 30])
def test_demo_design(name, mode, k):
    analyzer = demo_analyzer()
    want = ExhaustiveTimer(analyzer).top_slacks(k, mode)
    got = TIMERS[name](analyzer).top_slacks(k, mode)
    assert_slacks_equal(got, want)


@pytest.mark.parametrize("name", TIMERS)
def test_k_zero_rejected(name):
    with pytest.raises(AnalysisError):
        TIMERS[name](demo_analyzer()).top_paths(0, "setup")


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from(MODES),
       st.sampled_from([1, 5, 25]))
def test_pair_enum_matches_oracle(seed, mode, k):
    analyzer = analyzer_for(seed)
    assert_slacks_equal(PairEnumTimer(analyzer).top_slacks(k, mode),
                        ExhaustiveTimer(analyzer).top_slacks(k, mode))


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from(MODES),
       st.sampled_from([1, 5, 25]))
def test_block_based_matches_oracle(seed, mode, k):
    analyzer = analyzer_for(seed)
    assert_slacks_equal(BlockBasedTimer(analyzer).top_slacks(k, mode),
                        ExhaustiveTimer(analyzer).top_slacks(k, mode))


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from(MODES),
       st.sampled_from([1, 5, 25]))
def test_branch_bound_matches_oracle(seed, mode, k):
    analyzer = analyzer_for(seed)
    assert_slacks_equal(BranchBoundTimer(analyzer).top_slacks(k, mode),
                        ExhaustiveTimer(analyzer).top_slacks(k, mode))


def test_pair_enum_parallel_executors_agree():
    analyzer = analyzer_for(42)
    serial = PairEnumTimer(analyzer).top_slacks(10, "setup")
    threaded = PairEnumTimer(analyzer, executor="thread",
                             workers=2).top_slacks(10, "setup")
    assert_slacks_equal(serial, threaded)


@pytest.mark.skipif("process" not in available_executors(),
                    reason="no fork support")
@pytest.mark.parametrize("mode", MODES)
def test_pair_enum_process_executor_matches_serial(mode):
    analyzer = analyzer_for(43)
    want = PairEnumTimer(analyzer).top_paths(10, mode)
    with collecting() as col:
        got = PairEnumTimer(analyzer, executor="process",
                            workers=2).top_paths(10, mode)
    assert [(p.slack, p.credit, p.pins) for p in got] == \
        [(p.slack, p.credit, p.pins) for p in want]
    # The endpoints ran on the process rung, not a fallback.
    assert col.profile().counter("degrade.executor") == 0


def test_block_based_credit_table_shape():
    analyzer = analyzer_for(17)
    timer = BlockBasedTimer(analyzer)
    table = timer.credit_table()
    graph = analyzer.graph
    assert set(table) == {ff.index for ff in graph.ffs}
    tree = graph.clock_tree
    for capture, pairs in table.items():
        for launch, credit in pairs:
            assert credit == pytest.approx(tree.pair_credit(
                graph.ffs[launch].tree_node,
                graph.ffs[capture].tree_node))


def test_block_based_connectivity_positive():
    analyzer = analyzer_for(17)
    assert BlockBasedTimer(analyzer).connectivity() > 0


def test_branch_bound_expansion_guard():
    analyzer = analyzer_for(23)
    timer = BranchBoundTimer(analyzer, max_expansions=1)
    with pytest.raises(AnalysisError, match="expansions"):
        timer.top_paths(20, "setup")


@settings(max_examples=10)
@given(st.integers(min_value=0, max_value=10_000))
def test_all_timers_agree_on_paths_not_just_slacks(seed):
    """Where slacks are unique, the actual pin sequences must agree."""
    analyzer = analyzer_for(seed)
    oracle = ExhaustiveTimer(analyzer).top_paths(10, "setup")
    slack_counts = {}
    for path in oracle:
        key = round(path.slack, 9)
        slack_counts[key] = slack_counts.get(key, 0) + 1
    unique = {round(p.slack, 9): p.pins for p in oracle
              if slack_counts[round(p.slack, 9)] == 1}
    for timer_cls in TIMERS.values():
        for path in timer_cls(analyzer).top_paths(10, "setup"):
            key = round(path.slack, 9)
            if key in unique:
                assert path.pins == unique[key]
