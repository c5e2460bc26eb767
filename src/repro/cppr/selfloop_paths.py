"""Self-loop path candidates (paper Definition 5, Algorithm 3).

Paths whose launching and capturing flip-flop coincide have
``LCA(u, u) = u``, so their full launch-clock-path credit ``credit(u)`` is
removed.  The candidate set ranks *every* path by
``slack(p, depth(p.lauFF))`` — folding ``credit(lauFF)`` into each launch
seed — which over-credits non-self-loop paths (their real LCA is an
ancestor with no larger credit) and therefore never lets them displace a
true top-k self-loop path; ``selectTopPaths`` later discards them.

No grouping or fallback tuples are needed, so this is a single-tuple
pass.  :func:`single_tuple_paths` is its body and the primary-input
family's (:mod:`repro.cppr.pi_paths`): the two differ only in their
launch seeds, their row of the batched sweep and their credit.
"""

from __future__ import annotations

from repro.cppr.deviation import run_topk
from repro.cppr.level_paths import level_capture_seeds
from repro.cppr.propagation import Seed, propagate_single
from repro.cppr.types import PathFamily, TimingPath
from repro.obs import collector as _obs
from repro.sta.modes import AnalysisMode
from repro.sta.timing import TimingAnalyzer

__all__ = ["self_loop_paths", "self_loop_seed_map", "single_tuple_paths"]


def self_loop_paths(analyzer: TimingAnalyzer, k: int,
                    mode: AnalysisMode | str,
                    heap_capacity: int | None = None,
                    backend: str = "scalar",
                    batch=None) -> list[TimingPath]:
    """Top-``k`` self-loop path candidates, best slack first.

    ``batch`` optionally supplies the mode's already-propagated rows (a
    :class:`~repro.core.batched.BatchedLevels` sweep or an incremental
    session's :class:`~repro.pipeline.state.SessionBatch`); the family
    then reads row ``D`` instead of propagating — the same contract as
    the ``batch`` parameter of
    :func:`~repro.cppr.level_paths.paths_at_level`.
    """
    with _obs.span("self_loop"):
        return single_tuple_paths(analyzer, k, mode, heap_capacity,
                                  backend, batch, PathFamily.SELF_LOOP,
                                  self_loop_seed_map)


def self_loop_seed_map(graph, mode: AnalysisMode
                       ) -> dict[int, tuple[float, int]]:
    """Every Q pin's launch tuple ``(time, from)``, where ``time`` is
    ``(clock arrival + clk-to-q) ∓ credit(launch FF)``."""
    tree = graph.clock_tree
    seeds = {}
    for ff in graph.ffs:
        node = ff.tree_node
        credit = tree.credit(node)
        if mode.is_setup:
            q_at = tree.at_late(node) + ff.clk_to_q_late - credit
        else:
            q_at = tree.at_early(node) + ff.clk_to_q_early + credit
        seeds[ff.q_pin] = (q_at, ff.ck_pin)
    return seeds


def single_tuple_paths(analyzer: TimingAnalyzer, k: int,
                       mode: AnalysisMode | str,
                       heap_capacity: int | None, backend: str, batch,
                       family: PathFamily,
                       launch_seed_map) -> list[TimingPath]:
    """One single-tuple family's candidates (self-loop or primary input).

    With ``batch`` the family reads its row — ``D`` for self-loops,
    ``D + 1`` for primary inputs — and that row's capture seeds.
    Without it, ``launch_seed_map(graph, mode)`` seeds a standalone
    :func:`~repro.cppr.propagation.propagate_single` on ``backend``.
    """
    mode = AnalysisMode.coerce(mode)
    graph = analyzer.graph
    if batch is not None:
        row = batch.num_levels + (family is PathFamily.PRIMARY_INPUT)
        if not batch.num_seeds(row):
            return []
        with _obs.span("propagate.slice"):
            arrays = batch.arrays(row)
        capture_seeds = batch.capture_seeds(row, analyzer)
    else:
        seeds = [Seed(pin, *seed) for pin, seed
                 in launch_seed_map(graph, mode).items()]
        if not seeds:
            return []
        with _obs.span("propagate"):
            arrays = propagate_single(graph, mode, seeds, backend)
        capture_seeds = level_capture_seeds(analyzer, None, arrays, mode)

    with _obs.span("search"):
        results = run_topk(graph, arrays, capture_seeds, k, mode,
                           heap_capacity)

    tree = graph.clock_tree
    paths = []
    for result in results:
        # A primary input launches from no flip-flop and has no credit.
        launch_ff = graph.ff_of_q_pin.get(result.pins[0])
        credit = (0.0 if launch_ff is None
                  else tree.credit(graph.ffs[launch_ff].tree_node))
        paths.append(TimingPath(
            mode=mode, family=family, slack=result.slack, credit=credit,
            pins=result.pins, launch_ff=launch_ff,
            capture_ff=result.capture_ff))
    _obs.add(f"candidates.produced.{family.value}", len(paths))
    return paths
