"""Shared infrastructure for the benchmark suite.

Environment knobs (all optional):

* ``REPRO_BENCH_SCALE`` — multiplies every suite design's size
  (default 1.0; 0.25 gives a fast smoke run).
* ``REPRO_BENCH_FULL`` — set to ``1`` to run the complete Table IV /
  Figure 5 matrices under pytest (the default keeps the heavyweight
  pair-enumeration configurations out of ``pytest benchmarks/``; the
  standalone ``run_experiments.py`` always runs what you ask for).
"""

from __future__ import annotations

import json
import os
import time
from functools import lru_cache
from pathlib import Path

from repro import (BlockBasedTimer, BranchBoundTimer, CpprEngine,
                   CpprOptions, PairEnumTimer, TimingAnalyzer)
from repro.obs import Profile, collecting
from repro.workloads.suite import build_design

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
BENCH_FULL = os.environ.get("REPRO_BENCH_FULL", "0") == "1"

#: The designs exercised by the default pytest-benchmark run: the
#: smallest, a mid-size, and the densest (leon2).
QUICK_DESIGNS = ["vga_lcdv2", "combo4v2", "leon2"]

TIMER_NAMES = ["ours", "ours-scalar", "ours-array", "ours-mt",
               "pair_enum", "block_based", "branch_bound"]


@lru_cache(maxsize=None)
def get_analyzer(design: str, scale: float = BENCH_SCALE) -> TimingAnalyzer:
    """Build (and cache) one suite design's analyzer."""
    graph, constraints = build_design(design, scale=scale)
    analyzer = TimingAnalyzer(graph, constraints)
    analyzer.graph.topo_order  # pre-pay shared setup
    analyzer.arrivals
    return analyzer


def make_timer(name: str, analyzer: TimingAnalyzer, workers: int = 8):
    """Instantiate a timer by its benchmark name."""
    if name == "ours":
        return CpprEngine(analyzer)
    if name == "ours-scalar":
        return CpprEngine(analyzer, CpprOptions(backend="scalar"))
    if name == "ours-array":
        return CpprEngine(analyzer, CpprOptions(backend="array"))
    if name == "ours-raw":
        # Resilience disabled (no retries => the scheduler's bare-loop
        # fast path): the pre-fault-tolerance dispatch, kept as the
        # baseline for the faults overhead step.
        return CpprEngine(analyzer, CpprOptions(max_retries=0))
    if name == "ours-mt":
        return CpprEngine(analyzer, CpprOptions(executor="process",
                                                workers=workers))
    if name == "pair_enum":
        return PairEnumTimer(analyzer)
    if name == "block_based":
        return BlockBasedTimer(analyzer)
    if name == "branch_bound":
        return BranchBoundTimer(analyzer)
    raise ValueError(f"unknown timer {name!r}")


def run_both_modes(timer, k: int) -> tuple[list[float], list[float]]:
    """One Table IV 'run': top-k for the setup AND the hold test."""
    return timer.top_slacks(k, "setup"), timer.top_slacks(k, "hold")


# ----------------------------------------------------------------------
# ECO edit sampling (the `incremental` bench step)
# ----------------------------------------------------------------------
def competitive_edit_pool(analyzer: TimingAnalyzer, graph=None,
                          margin: float = 0.3,
                          cone_cap: int | None = None) -> list[tuple]:
    """Edges whose edits a warm session should absorb incrementally.

    An ECO batch only exercises the incremental machinery when the
    edited edges are *competitive* — close enough to the locally
    winning arrival that shrinking them perturbs real timing state —
    yet *off-critical* with a small fanout cone, so the dirty region
    stays a sliver of the design (the regime the paper's ECO loop
    lives in).  Returns ``(driver, sink, margin)`` triples where at
    sink ``v`` every driver is reachable, and the edge loses both the
    late max and the early min race by more than ``margin`` (computed
    from the analyzer's pre-CPPR arrival times), with ``v``'s fanout
    cone within ``cone_cap`` pins (default: 0.1% of the design).
    """
    from repro.pipeline.dirty import fanout_cone, topo_positions

    graph = analyzer.graph if graph is None else graph
    at = analyzer.arrivals
    if cone_cap is None:
        cone_cap = max(8, round(0.001 * graph.num_pins))
    positions = topo_positions(graph)
    pool = []
    for v in range(graph.num_pins):
        row = graph.fanin[v]
        if len(row) < 2:
            continue
        if not all(at.is_reachable(u) for u, _e, _l in row):
            continue
        win_l = max(at.late[u] + l for u, e, l in row)
        win_e = min(at.early[u] + e for u, e, l in row)
        cone_ok = None  # computed lazily, once per sink
        for u, e, l in row:
            if (win_l - (at.late[u] + l) > margin
                    and (at.early[u] + e) - win_e > margin
                    and l - e > 1e-6):
                if cone_ok is None:
                    cone_ok = fanout_cone(graph, [v], positions,
                                          cap=cone_cap) is not None
                if cone_ok:
                    pool.append((u, v,
                                 min(win_l - (at.late[u] + l),
                                     (at.early[u] + e) - win_e)))
    return pool


def pick_eco_batch(graph, pool: list[tuple], rng, count: int) -> list:
    """Draw ``count`` distinct-edge shrink edits from the pool.

    Each edit re-reads the edge's *current* ``(early, late)`` pair
    (the pool may be older than the graph by several applied batches)
    and shrinks the interval from both ends by
    ``min(0.25 * margin, 0.45 * (late - early))`` — small enough to
    keep the edge off-critical, large enough to move real state.
    """
    from repro import DelayUpdate

    out, seen = [], set()
    shuffled = list(pool)
    rng.shuffle(shuffled)
    for u, v, margin in shuffled:
        if len(out) == count:
            break
        if (u, v) in seen:
            continue
        seen.add((u, v))
        early, late = next((e, l) for t, e, l in graph.fanout[u]
                           if t == v)
        d = min(0.25 * margin, 0.45 * (late - early))
        out.append(DelayUpdate(u, v, early + d, late - d))
    if len(out) < count:
        raise RuntimeError(
            f"edit pool too small: wanted {count} edits, "
            f"found {len(out)} distinct competitive edges")
    return out


# ----------------------------------------------------------------------
# Observability hooks
# ----------------------------------------------------------------------
def profiled_run(timer, k: int, mode: str = "setup"
                 ) -> tuple[float, Profile]:
    """One instrumented run: ``(wall seconds, obs profile)``.

    The wall clock includes the (small) collector overhead, so profiled
    timings are reported separately from the uninstrumented Table IV
    numbers rather than replacing them.
    """
    start = time.perf_counter()
    with collecting() as col:
        timer.top_slacks(k, mode)
    return time.perf_counter() - start, col.profile()


def per_pass_seconds(profile: Profile) -> dict[str, float]:
    """Wall seconds of each candidate-generation pass, by span label."""
    passes: dict[str, float] = {}
    for node in profile.iter_spans():
        if (node.name.startswith("level[")
                or node.name in ("self_loop", "primary_input", "output")):
            passes[node.name] = passes.get(node.name, 0.0) + node.seconds
    return passes


def propagate_seconds(profile: Profile) -> float:
    """Total forward-propagation seconds of one query, on either backend.

    Sums the ``propagate`` spans (the scalar level passes and every
    single-tuple pass), the array backend's batched sweep
    (``propagate.batched``) and the per-level slices it serves
    (``propagate.slice``).
    """
    return sum(profile.span_seconds(name) for name in
               ("propagate", "propagate.slice", "propagate.batched"))


def write_bench_profile(path: str | Path, payload: dict) -> None:
    """Write one machine-readable bench-profile JSON document."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")
