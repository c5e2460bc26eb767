"""Shared circuit builders and comparison helpers for the test suite."""

from __future__ import annotations

from repro import (CpprEngine, ExhaustiveTimer, Netlist, TimingAnalyzer,
                   TimingConstraints, TimingGraph)
from repro.workloads import suggest_clock_period
from repro.workloads.random_circuit import RandomDesignSpec, random_design

TOL = 1e-9


def demo_netlist() -> Netlist:
    """A 4-FF, 3-gate design with a 2-level clock tree and one PI.

    Exercises every candidate family: FF-to-FF paths across both clock
    subtrees (LCA at the root and at depth 1), a feedback loop
    (ff2 -> g3 -> ff1 -> g1 -> ff2), and a primary-input path.
    """
    netlist = Netlist("demo")
    netlist.set_clock_root("clk")
    netlist.add_clock_buffer("b1", "clk", 1.0, 1.5)
    netlist.add_clock_buffer("b2", "clk", 1.0, 1.2)
    for name, parent in [("ff1", "b1"), ("ff2", "b1"),
                         ("ff3", "b2"), ("ff4", "b2")]:
        netlist.add_flipflop(name, t_setup=0.2, t_hold=0.1,
                             clk_to_q=(0.2, 0.3))
        netlist.connect_clock(name, parent, 0.5, 0.8)
    netlist.add_gate("g1", 2, [(1.0, 2.0), (0.5, 1.0)])
    netlist.connect("ff1/Q", "g1/A0", 0.1, 0.2)
    netlist.connect("ff3/Q", "g1/A1", 0.1, 0.2)
    netlist.connect("g1/Y", "ff2/D", 0.1, 0.3)
    netlist.add_gate("g2", 1, [(0.7, 0.9)])
    netlist.connect("g1/Y", "g2/A0", 0.0, 0.1)
    netlist.connect("g2/Y", "ff4/D", 0.1, 0.2)
    netlist.add_primary_input("in0", 0.0, 0.5)
    netlist.add_gate("g3", 2, [(0.3, 0.4), (0.3, 0.5)])
    netlist.connect("in0", "g3/A0")
    netlist.connect("ff2/Q", "g3/A1", 0.05, 0.1)
    netlist.connect("g3/Y", "ff1/D", 0.1, 0.2)
    netlist.add_primary_output("out0", rat_early=0.0, rat_late=20.0)
    netlist.connect("g2/Y", "out0", 0.1, 0.2)
    return netlist


def demo_design() -> tuple[TimingGraph, TimingConstraints]:
    return demo_netlist().elaborate(), TimingConstraints(6.0)


def demo_analyzer() -> TimingAnalyzer:
    graph, constraints = demo_design()
    return TimingAnalyzer(graph, constraints)


def two_ff_design(launch_delays=(0.5, 0.8), capture_delays=(0.5, 0.6),
                  data_delays=(1.0, 2.0), period=6.0,
                  t_setup=0.2, t_hold=0.1, clk_to_q=(0.2, 0.3),
                  shared_delays=(1.0, 1.5)
                  ) -> tuple[TimingGraph, TimingConstraints]:
    """Minimal two-FF design: clk -> buf -> {ffa, ffb}, ffa -> g -> ffb."""
    netlist = Netlist("two_ff")
    netlist.set_clock_root("clk")
    netlist.add_clock_buffer("buf", "clk", *shared_delays)
    netlist.add_flipflop("ffa", t_setup, t_hold, clk_to_q)
    netlist.add_flipflop("ffb", t_setup, t_hold, clk_to_q)
    netlist.connect_clock("ffa", "buf", *launch_delays)
    netlist.connect_clock("ffb", "buf", *capture_delays)
    netlist.add_gate("g", 1, [data_delays])
    netlist.connect("ffa/Q", "g/A0", 0.0, 0.0)
    netlist.connect("g/Y", "ffb/D", 0.0, 0.0)
    return netlist.elaborate(), TimingConstraints(period)


def random_small(seed: int, **overrides
                 ) -> tuple[TimingGraph, TimingConstraints]:
    """A small random design suitable for the exhaustive oracle."""
    params = dict(name=f"rand{seed}", seed=seed, num_ffs=6, num_gates=12,
                  num_pis=2, num_pos=2, clock_depth=3, global_mix=0.5,
                  recent_window=6)
    params.update(overrides)
    graph = random_design(RandomDesignSpec(**params))
    period = suggest_clock_period(graph, utilization=0.9)
    return graph, TimingConstraints(period)


def oracle_slacks(analyzer: TimingAnalyzer, k: int, mode) -> list[float]:
    return ExhaustiveTimer(analyzer).top_slacks(k, mode)


def engine_slacks(analyzer: TimingAnalyzer, k: int, mode,
                  **options) -> list[float]:
    engine = CpprEngine(analyzer)
    if options:
        engine = engine.with_options(**options)
    return engine.top_slacks(k, mode)


def assert_slacks_equal(got: list[float], want: list[float],
                        tol: float = TOL) -> None:
    assert len(got) == len(want), (
        f"path count mismatch: got {len(got)}, want {len(want)}\n"
        f"got={got}\nwant={want}")
    for i, (a, b) in enumerate(zip(got, want)):
        assert abs(a - b) <= tol, (
            f"slack {i} mismatch: got {a}, want {b}\n"
            f"got={got}\nwant={want}")


def path_names(graph: TimingGraph, path) -> list[str]:
    return [graph.pin_name(p) for p in path.pins]


def scalar_level_pass(graph: TimingGraph, level: int, mode):
    """One scalar grouped pass at ``level``, seeded as the engine seeds it.

    Returns the level's dual arrays, or ``None`` when no flip-flop
    launches at ``level``.
    """
    from repro.cppr.grouping import group_for_level
    from repro.cppr.propagation import Seed, propagate_dual

    tree = graph.clock_tree
    grouping = group_for_level(tree, level, graph.num_ffs)
    seeds = []
    for ff in graph.ffs:
        if not grouping.participates(ff.index):
            continue
        node = ff.tree_node
        offset = grouping.launch_offset[ff.index]
        if mode.is_setup:
            q_at = tree.at_late(node) + ff.clk_to_q_late - offset
        else:
            q_at = tree.at_early(node) + ff.clk_to_q_early + offset
        seeds.append(Seed(ff.q_pin, q_at, ff.ck_pin,
                          grouping.group[ff.index]))
    return propagate_dual(graph, mode, seeds) if seeds else None


def assert_single_rows_match_standalone(graph: TimingGraph, batch,
                                        mode) -> None:
    """Rows ``D`` and ``D + 1`` of a sweep are the standalone passes.

    The self-loop and primary-input rows hold one group, so their
    fallback half stays empty; their times and from-pointers are
    bit-for-bit the scalar ``propagate_single`` pass and their cost
    column is ``propagate_single_array``'s.
    """
    from repro.cppr.pi_paths import primary_input_seed_map
    from repro.cppr.propagation import Seed, propagate_single
    from repro.cppr.selfloop_paths import self_loop_seed_map

    def bits(column):
        return [value.hex() for value in column]

    levels = batch.num_levels
    for row, seed_map in ((levels, self_loop_seed_map),
                          (levels + 1, primary_input_seed_map)):
        seeds = [Seed(pin, *seed)
                 for pin, seed in seed_map(graph, mode).items()]
        assert batch.num_seeds(row) == len(seeds)
        assert (batch.time1[row] == mode.empty_time).all()
        got = batch.arrays(row)
        assert not hasattr(got, "time0")
        ref = propagate_single(graph, mode, seeds)
        assert bits(got.time) == bits(ref.time)
        assert list(got.from_pin) == ref.from_pin
        array = propagate_single(graph, mode, seeds, backend="array")
        assert bits(got.fast.cost0) == bits(array.fast.cost0)
        assert got.fast.delay == array.fast.delay


def assert_batched_rows_match_scalar(graph: TimingGraph, mode) -> None:
    """Every row of the batched sweep is bit-for-bit its scalar pass.

    Level rows: same IEEE-754 arrival values, from-pointers and group
    ids, and a deviation-cost column equal to the cost formula
    evaluated edge by edge on the scalar times over the graph's own
    fanin lists.  Rows ``D`` and ``D + 1``: see
    :func:`assert_single_rows_match_standalone`.
    """
    import math

    from repro.core.batched import propagate_dual_batched

    batch = propagate_dual_batched(graph, mode)
    assert batch.num_levels == graph.clock_tree.num_levels
    assert_single_rows_match_standalone(graph, batch, mode)
    for level in range(batch.num_levels):
        ref = scalar_level_pass(graph, level, mode)
        if ref is None:
            assert batch.num_seeds(level) == 0
            continue
        assert batch.num_seeds(level) > 0
        got = batch.arrays(level)
        # The columns are views of the sweep rows; every element must
        # match.
        assert list(got.time0) == ref.time0
        assert list(got.from0) == ref.from0
        assert list(got.group0) == ref.group0
        assert list(got.time1) == ref.time1
        assert list(got.from1) == ref.from1
        assert list(got.group1) == ref.group1
        fast, t = got.fast, ref.time0
        for v in range(graph.num_pins):
            row = range(fast.ptr[v], fast.ptr[v + 1])
            assert sorted((fast.src[i], fast.delay[i]) for i in row) == \
                sorted((u, late if mode.is_setup else early)
                       for u, early, late in graph.fanin[v])
            for i in row:
                u, delay = fast.src[i], fast.delay[i]
                cost = (t[v] - t[u] - delay if mode.is_setup
                        else t[u] + delay - t[v])
                assert fast.cost0[i] == (cost if math.isfinite(cost)
                                         else math.inf)
