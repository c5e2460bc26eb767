"""Tests for the deviation-edge top-k search (paper Algorithm 5)."""

from __future__ import annotations

import pytest

from repro.cppr.deviation import (CaptureSeed, SearchResult, _materialize,
                                  _SearchState, run_topk)
from repro.cppr.propagation import Seed, propagate_single
from repro.ds.minmax_heap import MinMaxHeap
from repro.exceptions import AnalysisError
from repro.obs import collecting
from repro.sta.modes import AnalysisMode
from tests.helpers import demo_netlist, random_small


def ungrouped_arrays(graph, mode):
    """The ungrouped pass launched from every FF Q pin."""
    tree = graph.clock_tree
    seeds = []
    for ff in graph.ffs:
        if mode.is_setup:
            time = tree.at_late(ff.tree_node) + ff.clk_to_q_late
        else:
            time = tree.at_early(ff.tree_node) + ff.clk_to_q_early
        seeds.append(Seed(ff.q_pin, time, ff.ck_pin))
    return propagate_single(graph, mode, seeds)


def simple_search(graph, mode, k, heap_capacity=None):
    """Run the ungrouped search from every FF D pin on ``graph``."""
    tree = graph.clock_tree
    arrays = ungrouped_arrays(graph, mode)
    captures = []
    for ff in graph.ffs:
        record = arrays.best(ff.d_pin)
        if record is None:
            continue
        if mode.is_setup:
            slack = (tree.at_early(ff.tree_node) + 6.0 - ff.t_setup
                     - record[0])
        else:
            slack = record[0] - tree.at_late(ff.tree_node) - ff.t_hold
        captures.append(CaptureSeed(slack, ff.d_pin, capture_ff=ff.index))
    return run_topk(graph, arrays, captures, k, mode,
                    heap_capacity=heap_capacity)


class TestValidation:
    def test_k_zero_rejected(self):
        graph = demo_netlist().elaborate()
        with pytest.raises(AnalysisError, match="k must be"):
            simple_search(graph, AnalysisMode.SETUP, 0)

    def test_capacity_below_k_rejected(self):
        graph = demo_netlist().elaborate()
        with pytest.raises(AnalysisError, match="heap capacity"):
            simple_search(graph, AnalysisMode.SETUP, 5, heap_capacity=3)


class TestSearch:
    def test_results_sorted_by_slack(self):
        graph = demo_netlist().elaborate()
        results = simple_search(graph, AnalysisMode.SETUP, 10)
        slacks = [r.slack for r in results]
        assert slacks == sorted(slacks)

    def test_paths_are_unique(self):
        graph = demo_netlist().elaborate()
        results = simple_search(graph, AnalysisMode.SETUP, 10)
        assert len({r.pins for r in results}) == len(results)

    def test_paths_follow_real_edges(self):
        graph = demo_netlist().elaborate()
        edges = {(u, v) for u in range(graph.num_pins)
                 for v, _e, _l in graph.fanout[u]}
        for result in simple_search(graph, AnalysisMode.HOLD, 10):
            for u, v in zip(result.pins, result.pins[1:]):
                assert (u, v) in edges

    def test_paths_start_at_q_and_end_at_capture(self):
        graph = demo_netlist().elaborate()
        for result in simple_search(graph, AnalysisMode.SETUP, 10):
            assert result.pins[0] in graph.ff_of_q_pin
            assert result.pins[-1] == result.capture_pin

    def test_k_larger_than_path_count_returns_all(self):
        graph = demo_netlist().elaborate()
        results = simple_search(graph, AnalysisMode.SETUP, 10_000)
        # The demo circuit has finitely many FF->FF paths; asking for more
        # returns exactly the existing ones, no duplicates, no crash.
        assert len({r.pins for r in results}) == len(results)
        assert len(results) < 10_000

    def test_bounded_heap_matches_unbounded_prefix(self):
        for seed in range(10):
            graph, _constraints = random_small(seed)
            bounded = simple_search(graph, AnalysisMode.SETUP, 8)
            unbounded = simple_search(graph, AnalysisMode.SETUP, 8,
                                      heap_capacity=10_000)
            assert [round(r.slack, 9) for r in bounded] == \
                   [round(r.slack, 9) for r in unbounded]

    def test_deviation_costs_are_nonnegative(self):
        """Successive slacks never decrease -> every deviation cost >= 0."""
        for seed in range(10):
            graph, _constraints = random_small(seed)
            for mode in (AnalysisMode.SETUP, AnalysisMode.HOLD):
                results = simple_search(graph, mode, 20)
                slacks = [r.slack for r in results]
                assert slacks == sorted(slacks)


def push_every_seed_topk(graph, arrays, seeds, k, mode, capacity):
    """The search as it ran before seed pre-selection (scalar loop).

    Every seed goes through the bounded heap; the deviation loop is
    ``run_topk``'s reference loop, unchanged.
    """
    heap = MinMaxHeap()
    for seed in seeds:
        heap.push_bounded(seed.slack,
                          _SearchState(seed.capture_pin, seed.group, (),
                                       seed.capture_pin, seed.capture_ff),
                          capacity)
    results = []
    while heap and len(results) < k:
        slack, state = heap.pop_min()
        results.append(SearchResult(slack,
                                    _materialize(graph, arrays, state),
                                    state.capture_pin, state.capture_ff))
        if len(results) == k:
            break
        pin = state.pos
        while True:
            time_here, from_pin, _grp = arrays.auto(pin, state.group)
            for w, delay_early, delay_late in graph.fanin[pin]:
                if w == from_pin:
                    continue
                w_record = arrays.auto(w, state.group)
                if w_record is None:
                    continue
                if mode.is_setup:
                    cost = time_here - w_record[0] - delay_late
                else:
                    cost = w_record[0] + delay_early - time_here
                heap.push_bounded(
                    slack + cost,
                    _SearchState(w, state.group,
                                 state.devlist + ((w, pin),),
                                 state.capture_pin, state.capture_ff),
                    capacity)
            if from_pin < 0 or graph.is_clock_pin[from_pin]:
                break
            pin = from_pin
    return results


class TestSeedPreselection:
    """Pushing only the ``capacity`` best seeds keeps the heap's order."""

    @pytest.mark.parametrize("heap_capacity", [None, 12])
    @pytest.mark.parametrize("mode", list(AnalysisMode))
    def test_ties_across_the_capacity_boundary(self, mode, heap_capacity):
        graph = demo_netlist().elaborate()
        arrays = ungrouped_arrays(graph, mode)
        pins = [ff.d_pin for ff in graph.ffs
                if arrays.best(ff.d_pin) is not None]
        # 30 seeds over 8 slacks, 3 or 4 seeds each, in interleaved input
        # order: the 5th and 12th smallest both sit inside a tie.  Each
        # seed carries its input position as capture_ff, so results
        # show which of two tied seeds popped first.
        seeds = [CaptureSeed(0.25 * ((i + 1) % 8), pins[i % len(pins)],
                             capture_ff=i) for i in range(30)]
        ordered = sorted(range(30), key=lambda i: seeds[i].slack)
        capacity = heap_capacity or 5
        assert seeds[ordered[capacity - 1]].slack == \
            seeds[ordered[capacity]].slack
        want = push_every_seed_topk(graph, arrays, seeds, 5, mode,
                                    capacity)
        with collecting() as col:
            got = run_topk(graph, arrays, seeds, 5, mode,
                           heap_capacity=heap_capacity)
        assert got == want
        # Tied results are reported: their order is the tie order.
        assert len({r.slack for r in got}) < len(got)
        assert col.profile().counter("deviation.seeds") == 30
