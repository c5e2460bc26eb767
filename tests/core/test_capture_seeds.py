"""The batched capture-seed pass against the per-FF loop.

:meth:`~repro.core.batched.BatchedLevels.capture_seeds` computes every
row's capture seeds from the sweep's columns in one numpy pass.  It
must hand the deviation search exactly what the per-FF loop
(:func:`~repro.cppr.level_paths.level_capture_seeds`) builds: the same
seeds, in the same order, with bit-equal slacks — on a single-corner
sweep and on every corner of a fused one, for the level rows and for
the self-loop and primary-input rows ``D`` and ``D + 1``.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy", exc_type=ImportError)

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TimingAnalyzer
from repro.core.batched import (propagate_dual_batched,
                                propagate_dual_batched_corners)
from repro.cppr.grouping import group_for_level
from repro.cppr.level_paths import level_capture_seeds
from repro.cppr.pi_paths import primary_input_seed_map
from repro.cppr.propagation import Seed, propagate_single
from repro.cppr.selfloop_paths import self_loop_seed_map
from repro.cppr.tuples import NO_GROUP
from repro.sta.modes import AnalysisMode
from tests.corners.helpers import random_corner_set
from tests.helpers import demo_design, random_small, scalar_level_pass

MODES = list(AnalysisMode)


def _rows(seeds):
    """Seed identity with the slack's exact bits."""
    for seed in seeds:
        assert type(seed.slack) is float
        assert type(seed.capture_pin) is int
        assert type(seed.group) is int
        assert type(seed.capture_ff) is int
    return [(seed.slack.hex(), seed.capture_pin, seed.group,
             seed.capture_ff) for seed in seeds]


def assert_seeds_match_loop(analyzer, batch, mode) -> None:
    """Every row: the seed pass equals the loop, on two arrays.

    The loop runs over the batch's own row arrays and over the
    standalone scalar pass, so a wrong seed cannot hide behind a wrong
    arrival column.  Rows ``D`` and ``D + 1`` run the single-tuple
    loop: every flip-flop, no excluded group.
    """
    graph = analyzer.graph
    levels = batch.num_levels
    for row, seed_map in ((levels, self_loop_seed_map),
                          (levels + 1, primary_input_seed_map)):
        got = _rows(batch.capture_seeds(row, analyzer))
        assert all(group == NO_GROUP for _s, _p, group, _f in got)
        assert got == _rows(level_capture_seeds(
            analyzer, None, batch.arrays(row), mode))
        ref = propagate_single(graph, mode, [
            Seed(pin, *seed) for pin, seed in seed_map(graph, mode).items()])
        assert got == _rows(level_capture_seeds(analyzer, None, ref,
                                                mode))
    for level in range(levels):
        got = _rows(batch.capture_seeds(level, analyzer))
        grouping = batch.grouping(level)
        assert got == _rows(level_capture_seeds(
            analyzer, grouping, batch.arrays(level), mode))
        ref = scalar_level_pass(graph, level, mode)
        if ref is None:
            assert got == []
            continue
        scalar_grouping = group_for_level(graph.clock_tree, level,
                                          graph.num_ffs)
        assert got == _rows(level_capture_seeds(
            analyzer, scalar_grouping, ref, mode))


def _cases(analyzer, batch, mode) -> dict[str, int]:
    """How many (row, flip-flop) entries fall in each seed case."""
    from repro.core.batched import _ff_columns

    d_pin = _ff_columns(analyzer.graph)[5]
    levels = batch.num_levels
    gm = batch.group_matrix
    empty = mode.empty_time
    t0 = batch.time0[:levels, d_pin]
    t1 = batch.time1[:levels, d_pin]
    part = gm >= 0
    reached = part & (t0 != empty)
    own = reached & (batch.group0[:levels, d_pin] == gm)
    single = batch.time0[levels:, d_pin]
    return {"not participating": int((~part).sum()),
            "D pin unreached": int((part & (t0 == empty)).sum()),
            "primary tuple": int((reached & ~own).sum()),
            "fallback taken": int((own & (t1 != empty)).sum()),
            "fallback empty": int((own & (t1 == empty)).sum()),
            "single row reached": int((single != empty).sum()),
            "single row unreached": int((single == empty).sum())}


@pytest.mark.parametrize("mode", MODES)
def test_every_seed_case_matches_loop(mode):
    # demo_design has an unconnected D pin (ff3), a D pin whose primary
    # tuple comes from its own group with a different-group fallback
    # (ff2) and one with none (ff1), and D pins its one primary input
    # does not reach; random_small(0) has flip-flops too shallow to
    # take part in its deepest level.
    totals: dict[str, int] = {}
    for graph, constraints in (demo_design(), random_small(0)):
        analyzer = TimingAnalyzer(graph, constraints)
        batch = propagate_dual_batched(graph, mode)
        assert_seeds_match_loop(analyzer, batch, mode)
        for case, count in _cases(analyzer, batch, mode).items():
            totals[case] = totals.get(case, 0) + count
    assert all(totals.values()), totals


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_random_designs_match_loop(seed):
    graph, constraints = random_small(seed)
    analyzer = TimingAnalyzer(graph, constraints)
    for mode in MODES:
        assert_seeds_match_loop(analyzer,
                                propagate_dual_batched(graph, mode), mode)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000), count=st.integers(2, 4))
def test_every_fused_corner_matches_loop(seed, count):
    graph, constraints = random_small(seed)
    analyzer = TimingAnalyzer(graph, constraints)
    realized = random_corner_set(graph, seed=seed,
                                 count=count).realize(analyzer, "array")
    analyzers = list(realized.values())
    for mode in MODES:
        batches = propagate_dual_batched_corners(
            [a.graph for a in analyzers], mode)
        for corner_analyzer, batch in zip(analyzers, batches):
            assert_seeds_match_loop(corner_analyzer, batch, mode)


def test_seeds_follow_the_analyzer_they_are_asked_for():
    # The batch keeps its seed columns, keyed by the graph and period
    # they were computed for; another clock period recomputes them.
    graph, constraints = demo_design()
    batch = propagate_dual_batched(graph, AnalysisMode.SETUP)
    analyzer = TimingAnalyzer(graph, constraints)
    first = _rows(batch.capture_seeds(0, analyzer))
    assert _rows(batch.capture_seeds(0, analyzer)) == first
    slower = TimingAnalyzer(graph, type(constraints)(
        constraints.clock_period + 1.0))
    assert_seeds_match_loop(slower, batch, AnalysisMode.SETUP)
    assert _rows(batch.capture_seeds(0, slower)) != first
