"""Pair-enumeration baseline (OpenTimer-class architecture).

The architecture the paper attributes to prior exact tools: CPPR credits
depend on the *pair* of launching and capturing flip-flops, so the tool
analyzes one capturing endpoint at a time.  For each endpoint it

1. collects the endpoint's fan-in cone,
2. seeds every launching Q pin in the cone with its clock arrival offset
   by the exact pair credit ``credit(LCA(launch, capture))`` (possible
   because the capture is fixed), plus any primary inputs in the cone,
3. propagates arrivals and runs a deviation-based top-k search for this
   endpoint alone, and
4. merges per-endpoint results into the global top-k.

Results are exact, but the work is ``O(#FF * n)`` — each endpoint pays a
full propagation — which is precisely the FF-count-proportional cost the
paper's level decomposition eliminates.  Per-endpoint passes are
independent, so the same executors as the engine apply.
"""

from __future__ import annotations

from repro.baselines.common import (build_timing_path, fanin_cone,
                                    launchers_in_cone,
                                    primary_inputs_in_cone)
from repro.core import resolve_backend
from repro.cppr.deviation import CaptureSeed, run_topk
from repro.cppr.parallel import run_tasks
from repro.cppr.propagation import Seed, propagate_single
from repro.cppr.types import TimingPath
from repro.ds.bounded import TopK
from repro.exceptions import AnalysisError
from repro.sta.modes import AnalysisMode
from repro.sta.timing import TimingAnalyzer

__all__ = ["PairEnumTimer"]


def _analyze_endpoint(design: str, ff_index: int, k: int,
                      mode: AnalysisMode,
                      backend: str = "scalar") -> list[tuple[float, tuple]]:
    """Top-k (slack, pins) for one capturing flip-flop of the analyzer
    published as ``design`` (a :func:`repro.cppr.shard.publish_design`
    token: process workers resolve the analyzer inherited at fork)."""
    from repro.cppr import shard

    analyzer = shard.resolve_design(design)
    graph = analyzer.graph
    tree = graph.clock_tree
    capture = graph.ffs[ff_index]
    clock_period = analyzer.constraints.clock_period

    cone = fanin_cone(graph, capture.d_pin)

    seeds = []
    for launch_index in launchers_in_cone(graph, cone):
        launch = graph.ffs[launch_index]
        credit = tree.pair_credit(launch.tree_node, capture.tree_node)
        node = launch.tree_node
        if mode.is_setup:
            q_at = tree.at_late(node) + launch.clk_to_q_late - credit
        else:
            q_at = tree.at_early(node) + launch.clk_to_q_early + credit
        seeds.append(Seed(launch.q_pin, q_at, launch.ck_pin))
    for pi_index in primary_inputs_in_cone(graph, cone):
        pi = graph.primary_inputs[pi_index]
        seeds.append(Seed(pi.pin, pi.at_late if mode.is_setup
                          else pi.at_early))
    if not seeds:
        return []

    arrays = propagate_single(graph, mode, seeds, backend)
    record = arrays.best(capture.d_pin)
    if record is None:
        return []
    if mode.is_setup:
        slack = (tree.at_early(capture.tree_node) + clock_period
                 - capture.t_setup - record[0])
    else:
        slack = record[0] - (tree.at_late(capture.tree_node)
                             + capture.t_hold)
    capture_seed = CaptureSeed(slack, capture.d_pin,
                               capture_ff=capture.index)
    results = run_topk(graph, arrays, [capture_seed], k, mode)
    return [(result.slack, result.pins) for result in results]


class PairEnumTimer:
    """Exact per-endpoint CPPR timer; see module docstring."""

    def __init__(self, analyzer: TimingAnalyzer, executor: str = "serial",
                 workers: int | None = None,
                 backend: str = "auto") -> None:
        self.analyzer = analyzer
        self.executor = executor
        self.workers = workers
        self.backend = resolve_backend(backend)

    def top_paths(self, k: int, mode: AnalysisMode | str) -> list[TimingPath]:
        """Global top-``k`` post-CPPR critical paths, worst first."""
        if k < 1:
            raise AnalysisError(f"k must be at least 1, got {k}")
        mode = AnalysisMode.coerce(mode)
        graph = self.analyzer.graph
        graph.topo_order  # share the cached order with forked workers

        if self.backend == "array":
            from repro.core.arrays import get_core
            get_core(graph)  # build once; workers inherit the cache
        from repro.cppr import shard
        design = shard.publish_design(self.analyzer)
        args = [(design, ff.index, k, mode, self.backend)
                for ff in graph.ffs]
        per_endpoint = run_tasks(_analyze_endpoint, args,
                                 executor=self.executor,
                                 workers=self.workers)

        top = TopK(k)
        for endpoint_paths in per_endpoint:
            for slack, pins in endpoint_paths:
                top.offer(slack, pins)
        selected = [build_timing_path(self.analyzer, pins, mode, slack)
                    for slack, pins in top.sorted_items()]
        selected.sort(key=TimingPath.key)
        return selected

    def top_slacks(self, k: int, mode: AnalysisMode | str) -> list[float]:
        return [path.slack for path in self.top_paths(k, mode)]
