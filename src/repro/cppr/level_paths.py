"""Per-level path candidates (paper Definitions 3-4, Algorithms 2 and 5).

``paths_at_level(analyzer, d, k, mode)`` returns the top-``k`` paths whose
launching and capturing flip-flops lie in *different* groups when the
clock tree is cut below level ``d`` (equivalently: LCA depth <= ``d``),
ranked by the d-pessimism-removed slack
``slack(p, d) = slack(p) + credit(f_d(p.lauFF))``.

The launch credit is folded into the Q-pin seed arrival — subtracted for
setup (a *later* launch looks worse, so removing pessimism pulls the
launch earlier) and added for hold — exactly Algorithm 2 lines 4 and 6.
"""

from __future__ import annotations

from repro.cppr.deviation import CaptureSeed, run_topk
from repro.cppr.grouping import group_for_level
from repro.cppr.propagation import Seed, propagate_dual
from repro.cppr.tuples import NO_GROUP
from repro.cppr.types import PathFamily, TimingPath
from repro.obs import collector as _obs
from repro.sta.modes import AnalysisMode
from repro.sta.timing import TimingAnalyzer

__all__ = ["level_capture_seeds", "level_seed_map", "paths_at_level"]


def paths_at_level(analyzer: TimingAnalyzer, level: int, k: int,
                   mode: AnalysisMode | str,
                   heap_capacity: int | None = None,
                   backend: str = "scalar",
                   batch=None) -> list[TimingPath]:
    """Top-``k`` level-``level`` path candidates, best slack first.

    Runs one grouped forward pass (``O(n)``) plus the deviation search
    (``O(k log k)`` heap work along paths), matching the per-level cost in
    the paper's complexity theorem.  ``backend`` selects the scalar or
    array substrate for the pass (see :mod:`repro.core`); results are
    identical.  The array substrate reads its level from a
    :class:`~repro.core.batched.BatchedLevels` sweep for this mode:
    ``batch`` when the caller pre-computed one (then only the deviation
    search runs here, which is what lets the engine's executors still
    parallelize the searches), otherwise a sweep built by this call.
    The capture seeds come from the same place as the arrays: the
    batch's :meth:`capture_seeds`, or :func:`level_capture_seeds` over
    the scalar pass.
    """
    with _obs.span("level", level):
        return _paths_at_level(analyzer, level, k, mode, heap_capacity,
                               backend, batch)


def level_seed_map(graph, mode: AnalysisMode, grouping
                   ) -> dict[int, tuple[float, int, int]]:
    """Each participating Q pin's launch tuple ``(time, from, group)``.

    ``time`` is ``(clock arrival + clk-to-q) ∓ credit(f_d(launch FF))``,
    the offset subtracted for setup and added for hold (Algorithm 2
    lines 4, 6).  Sessions keep the map; a pass seeds from it.
    """
    tree = graph.clock_tree
    seeds = {}
    for ff in graph.ffs:
        if not grouping.participates(ff.index):
            continue
        node = ff.tree_node
        offset = grouping.launch_offset[ff.index]
        if mode.is_setup:
            q_at = tree.at_late(node) + ff.clk_to_q_late - offset
        else:
            q_at = tree.at_early(node) + ff.clk_to_q_early + offset
        seeds[ff.q_pin] = (q_at, ff.ck_pin, grouping.group[ff.index])
    return seeds


def level_capture_seeds(analyzer: TimingAnalyzer, grouping, arrays,
                        mode: AnalysisMode) -> list[CaptureSeed]:
    """The best path into each capture point of one family.

    One seed per participating flip-flop whose D pin ``at_auto``
    reaches with its capture group excluded (Algorithm 5 lines 3-7),
    in flip-flop order, ranked by the family's slack.  ``grouping``
    ``None`` is a single-tuple family: every flip-flop participates and
    no group is excluded.  This loop is the scalar and session
    implementation; :meth:`repro.core.batched.BatchedLevels.capture_seeds`
    computes the same list for every row of a batched sweep at once.
    """
    graph = analyzer.graph
    tree = graph.clock_tree
    clock_period = analyzer.constraints.clock_period
    capture_seeds = []
    for ff in graph.ffs:
        capture_group = NO_GROUP
        if grouping is not None:
            if not grouping.participates(ff.index):
                continue
            capture_group = grouping.group[ff.index]
        record = arrays.auto(ff.d_pin, capture_group)
        if record is None:
            continue
        if mode.is_setup:
            slack = (tree.at_early(ff.tree_node) + clock_period
                     - ff.t_setup - record[0])
        else:
            slack = record[0] - (tree.at_late(ff.tree_node) + ff.t_hold)
        capture_seeds.append(
            CaptureSeed(slack, ff.d_pin, capture_group, ff.index))
    return capture_seeds


def _paths_at_level(analyzer: TimingAnalyzer, level: int, k: int,
                    mode: AnalysisMode | str, heap_capacity: int | None,
                    backend: str, batch=None) -> list[TimingPath]:
    mode = AnalysisMode.coerce(mode)
    graph = analyzer.graph
    tree = graph.clock_tree

    if batch is None and backend == "array":
        from repro.core.batched import propagate_dual_batched
        batch = propagate_dual_batched(graph, mode)
    if batch is not None:
        grouping = batch.grouping(level)
        if not batch.num_seeds(level):
            # Mirrors the empty-seed early return below: a standalone
            # pass would not have propagated either.
            return []
        with _obs.span("propagate.slice"):
            arrays = batch.arrays(level)
        capture_seeds = batch.capture_seeds(level, analyzer)
    else:
        grouping = group_for_level(tree, level, graph.num_ffs)
        seeds = [Seed(pin, *seed) for pin, seed
                 in level_seed_map(graph, mode, grouping).items()]
        if not seeds:
            return []
        with _obs.span("propagate"):
            arrays = propagate_dual(graph, mode, seeds)
        capture_seeds = level_capture_seeds(analyzer, grouping, arrays,
                                            mode)

    with _obs.span("search"):
        results = run_topk(graph, arrays, capture_seeds, k, mode,
                           heap_capacity)

    paths = []
    for result in results:
        launch_ff = graph.ff_of_q_pin[result.pins[0]]
        paths.append(TimingPath(
            mode=mode, family=PathFamily.LEVEL, slack=result.slack,
            credit=grouping.launch_offset[launch_ff], pins=result.pins,
            launch_ff=launch_ff, capture_ff=result.capture_ff,
            level=level))
    _obs.add("candidates.produced.level", len(paths))
    return paths
