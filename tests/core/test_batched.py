"""Raw per-level equality: the batched sweep's rows vs scalar passes.

Every row of the batched state must be *bit-for-bit* what the scalar
reference pass for that level produces — same IEEE-754 arrival values,
same from-pointers and group ids, and a deviation-cost column equal to
the cost formula on the scalar times — because the deviation search
consumes either interchangeably and the engine promises identical
reports on both backends.
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
from repro.obs import collecting
from repro.sta.modes import AnalysisMode
from tests.corners.helpers import random_corner_set
from tests.helpers import (assert_batched_rows_match_scalar,
                           assert_single_rows_match_standalone, demo_design,
                           random_small)

MODES = list(AnalysisMode)
DESIGN_SEEDS = [0, 7, 23, 101]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("design_seed", DESIGN_SEEDS)
def test_rows_match_standalone_passes(design_seed, mode):
    graph, _constraints = random_small(design_seed)
    assert_batched_rows_match_scalar(graph, mode)


@pytest.mark.parametrize("mode", MODES)
def test_layered_design_rows_match(mode):
    graph, _constraints = random_small(5, layers=3, channels=2,
                                       num_gates=18)
    assert_batched_rows_match_scalar(graph, mode)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), count=st.integers(1, 4))
def test_single_rows_of_fused_corners_match_standalone(seed, count):
    # Rows D and D + 1 of every corner of a C = 1..4 fused sweep are
    # that corner's standalone self-loop and primary-input passes.
    graph, constraints = random_small(seed)
    realized = random_corner_set(graph, seed=seed, count=count).realize(
        TimingAnalyzer(graph, constraints), "array")
    graphs = [analyzer.graph for analyzer in realized.values()]
    for mode in MODES:
        batches = propagate_dual_batched_corners(graphs, mode)
        assert len(batches) == count
        for corner_graph, batch in zip(graphs, batches):
            assert_single_rows_match_standalone(corner_graph, batch, mode)


@pytest.mark.parametrize("mode", MODES)
def test_design_without_primary_inputs(mode):
    graph, _constraints = random_small(3, num_pis=0)
    assert not graph.primary_inputs
    batch = propagate_dual_batched(graph, mode)
    levels = batch.num_levels
    assert batch.num_seeds(levels + 1) == 0
    assert (batch.time0[levels + 1] == mode.empty_time).all()
    assert_batched_rows_match_scalar(graph, mode)


@pytest.mark.parametrize("mode", MODES)
def test_flip_flops_at_unequal_depths(mode):
    # The self-loop row folds each flip-flop's own credit, which is
    # not the deepest level's offset for a shallower flip-flop.
    graph, _constraints = random_small(0)
    tree = graph.clock_tree
    assert len({tree.depth(ff.tree_node) for ff in graph.ffs}) > 1
    assert_batched_rows_match_scalar(graph, mode)


def test_groupings_match_scalar_reference():
    graph, _constraints = demo_design()
    tree = graph.clock_tree
    batch = propagate_dual_batched(graph, AnalysisMode.SETUP)
    for level in range(tree.num_levels):
        got = batch.grouping(level)
        want = group_for_level(tree, level, graph.num_ffs, "scalar")
        assert got.level == want.level == level
        assert list(got.group) == list(want.group)
        assert list(got.launch_offset) == list(want.launch_offset)


def test_grouping_cache_prepopulated():
    # The batch's one-shot grouping matrix must land in the clock tree's
    # (level, backend) memo so later per-level lookups are cache hits.
    graph, _constraints = demo_design()
    tree = graph.clock_tree
    batch = propagate_dual_batched(graph, AnalysisMode.SETUP)
    for level in range(tree.num_levels):
        assert tree._group_cache[(level, "array")] is batch.grouping(level)


def test_counters_cover_every_level():
    graph, _constraints = demo_design()
    num_levels = graph.clock_tree.num_levels
    with collecting() as col:
        propagate_dual_batched(graph, AnalysisMode.SETUP)
    profile = col.profile()
    assert profile.counter("batched.builds") == 1
    assert profile.counter("batched.levels") == num_levels
    rows = [f"level[{d}]" for d in range(num_levels)]
    rows += ["self_loop", "primary_input"]
    seeds = [profile.counter(f"batched.seeds.{row}") for row in rows]
    visited = [profile.counter(f"batched.pins_visited.{row}")
               for row in rows]
    # demo_design launches from all four flip-flops and its one input.
    assert seeds[-2:] == [graph.num_ffs, 1]
    # The totals the D + 2 separate passes would have emitted.
    assert profile.counter("propagation.seeds") == sum(seeds)
    assert profile.counter("propagation.pins_visited") == sum(visited)
    # A level with no seeds visits no pins, and vice versa.
    for s, v in zip(seeds, visited):
        assert (s == 0) == (v == 0)


def test_level_columns_are_read_only_views_of_the_sweep():
    # No per-level copy: every column aliases its sweep-matrix row, and
    # a write raises instead of reaching the other families' rows.
    graph, _constraints = demo_design()
    batch = propagate_dual_batched(graph, AnalysisMode.SETUP)
    arrays = batch.arrays(1)
    columns = {"time0": arrays.time0, "from0": arrays.from0,
               "group0": arrays.group0, "time1": arrays.time1,
               "from1": arrays.from1, "group1": arrays.group1,
               "cost0": arrays.fast.cost0}
    for name, column in columns.items():
        assert isinstance(column, memoryview), name
        assert np.shares_memory(np.asarray(column),
                                getattr(batch, name)[1]), name
        with pytest.raises(TypeError):
            column[0] = column[0]


def test_single_rows_are_read_only_views_of_the_sweep():
    graph, _constraints = demo_design()
    batch = propagate_dual_batched(graph, AnalysisMode.HOLD)
    for row in (batch.num_levels, batch.num_levels + 1):
        arrays = batch.arrays(row)
        columns = {"time0": arrays.time, "from0": arrays.from_pin,
                   "cost0": arrays.fast.cost0}
        for name, column in columns.items():
            assert isinstance(column, memoryview), name
            assert np.shares_memory(np.asarray(column),
                                    getattr(batch, name)[row]), name
            with pytest.raises(TypeError):
                column[0] = column[0]
