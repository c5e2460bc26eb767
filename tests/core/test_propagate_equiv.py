"""Exact scalar-vs-array equality of propagation and grouping.

The cross-backend contract (see :mod:`repro.core`) promises *identical*
output — times, ``from``-pointers and group ids, not just values within
tolerance — because both backends implement the same lexicographic
tie-breaking rule.  These tests assert that bit-for-bit equality on
randomized designs — the array backend's grouped pass is the batched
sweep, checked row by row against the scalar level passes; the
ungrouped pass runs on randomized seed sets — plus a hand-built tie
case that pins the rule itself down.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

pytest.importorskip("numpy", exc_type=ImportError)

from repro import Netlist
from repro.core.batched import propagate_dual_batched
from repro.cppr.grouping import group_for_level
from repro.cppr.propagation import Seed, propagate_single
from repro.sta.modes import AnalysisMode
from tests.helpers import (assert_batched_rows_match_scalar, demo_design,
                           random_small, scalar_level_pass)

MODES = list(AnalysisMode)


def random_seeds(graph, rng, count=8, groups=3):
    return [Seed(rng.randrange(graph.num_pins), rng.uniform(-3, 3),
                 group=rng.randrange(groups))
            for _ in range(count)]


def assert_single_identical(graph, mode, seeds):
    a = propagate_single(graph, mode, seeds, backend="scalar")
    b = propagate_single(graph, mode, seeds, backend="array")
    assert a.time == b.time
    assert a.from_pin == b.from_pin


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from(MODES))
def test_random_designs_identical(design_seed, mode):
    graph, _ = random_small(design_seed)
    rng = random.Random(design_seed)
    assert_batched_rows_match_scalar(graph, mode)
    assert_single_identical(graph, mode, random_seeds(graph, rng))


@pytest.mark.parametrize("mode", MODES)
def test_demo_design_identical(mode):
    graph, _ = demo_design()
    rng = random.Random(7)
    assert_batched_rows_match_scalar(graph, mode)
    assert_single_identical(graph, mode, random_seeds(graph, rng,
                                                      count=12))


@pytest.mark.parametrize("mode", MODES)
def test_empty_seed_list(mode):
    graph, _ = demo_design()
    assert_single_identical(graph, mode, [])


def _diamond_graph():
    """Two equal-delay routes into one sink: forces an exact time tie."""
    netlist = Netlist("tie")
    netlist.set_clock_root("clk")
    for name in ("ffa", "ffb", "ffc"):
        netlist.add_flipflop(name, 0.1, 0.1, (0.2, 0.2))
        netlist.connect_clock(name, "clk", 1.0, 1.0)
    netlist.add_gate("g", 2, [(1.0, 1.0), (1.0, 1.0)])
    netlist.connect("ffa/Q", "g/A0", 0.5, 0.5)
    netlist.connect("ffb/Q", "g/A1", 0.5, 0.5)
    netlist.connect("g/Y", "ffc/D", 0.0, 0.0)
    return netlist.elaborate()


@pytest.mark.parametrize("mode", MODES)
def test_tie_breaks_on_smaller_from_pin(mode):
    graph = _diamond_graph()
    ffa = graph.ff_by_name("ffa")
    ffb = graph.ff_by_name("ffb")
    ffc = graph.ff_by_name("ffc")
    # ffa and ffb launch at identical times in different level-0 groups
    # and reach g/Y over identical delays: arrival at g/Y ties exactly,
    # and the contract says the smaller from-pin id wins in both
    # backends.
    y_pin = next(u for u, _e, _l in graph.fanin[ffc.d_pin])
    input_pins = sorted(u for u, _e, _l in graph.fanin[y_pin])
    grouped = {"scalar": scalar_level_pass(graph, 0, mode),
               "array": propagate_dual_batched(graph, mode).arrays(0)}
    seeds = [Seed(ffa.q_pin, 1.0, group=0), Seed(ffb.q_pin, 1.0, group=1)]
    for backend, arrays in grouped.items():
        assert arrays.from0[y_pin] == input_pins[0], backend
        # The loser survives as the different-group fallback.
        assert arrays.from1[y_pin] == input_pins[1], backend
        assert arrays.group1[y_pin] != arrays.group0[y_pin]
        assert arrays.time0[y_pin] == arrays.time1[y_pin]
        single = propagate_single(graph, mode, seeds, backend=backend)
        assert single.from_pin[y_pin] == input_pins[0], backend
    assert_batched_rows_match_scalar(graph, mode)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_grouping_identical(design_seed):
    graph, _ = random_small(design_seed)
    tree = graph.clock_tree
    for level in range(tree.num_levels):
        a = group_for_level(tree, level, graph.num_ffs, backend="scalar")
        b = group_for_level(tree, level, graph.num_ffs, backend="array")
        assert a.group == b.group
        assert a.launch_offset == b.launch_offset
        assert a.level == b.level


def test_grouping_negative_level_rejected_in_both():
    graph, _ = demo_design()
    tree = graph.clock_tree
    for backend in ("scalar", "array"):
        with pytest.raises(ValueError, match="non-negative"):
            group_for_level(tree, -1, graph.num_ffs, backend=backend)
