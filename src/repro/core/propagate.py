"""``backend="array"`` building blocks shared by the numpy passes.

* :func:`propagate_single_array` — a standalone ungrouped single-tuple
  pass (the output family, targeted queries, baselines; the engine's
  self-loop and primary-input passes are rows of the batched sweep).
  It computes exactly what the scalar loop in
  :mod:`repro.cppr.propagation` computes, one source level at a time
  with bulk array operations.
* :class:`FastDeviation` — the deviation-cost column for the graph's
  fanin CSR, which the top-k search in :mod:`repro.cppr.deviation`
  consumes in place of per-edge ``auto()`` queries.
* ``_beats`` / ``_lex_beats`` — the element-wise tie-break comparisons
  the batched sweep (:mod:`repro.core.batched`) shares.

Correctness of the level-wise relaxation rests on two facts:

1. **Level order is topological order.**  Every data edge goes from a
   lower to a strictly higher longest-path level, so when the level-``L``
   edge bucket is relaxed, every level-``<= L`` pin (every possible
   source) is final.
2. **The tuple state is order-independent.**  After any candidate set
   has been offered to a pin, its tuple is the lexicographically most
   pessimistic candidate (for the grouped pass, ``best`` plus the most
   pessimistic ``fallback`` whose group differs from ``best``'s — see
   :class:`repro.cppr.tuples.DualArrival`).  A batch that merges the
   pin's current state with all of a level's offers therefore lands in
   exactly the state the scalar incremental rule reaches.

The lexicographic candidate order — more pessimistic time first, then
smaller ``from``-pin id, then smaller group id — is the shared
tie-breaking contract of :mod:`repro.core`.  The level relaxation never
sorts at runtime: the edge table is pre-sorted by ``(dst, src)`` inside
each level (:class:`~repro.core.arrays.LevelBucket`), so the most
pessimistic candidate per destination is a ``reduceat`` segment
reduction, and "earliest position achieving the segment extremum"
recovers exactly the contract's winner (positions ascend by from-pin).
The same rule is spelled out per-offer in the scalar backend, so
``from``-pointers (and hence reported path sets) agree bit-for-bit.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro import faults
from repro.circuit.graph import TimingGraph
from repro.core.arrays import CoreArrays, get_core
from repro.cppr.tuples import NO_NODE
from repro.obs import collector as _obs
from repro.sta.modes import AnalysisMode

__all__ = ["FastDeviation", "propagate_single_array"]

_INF = float("inf")


class FastDeviation:
    """Precomputed per-edge deviation costs over the fanin CSR.

    ``cost0[i]`` is the cost of deviating into fanin edge ``i``
    (``src -> dst`` in :class:`~repro.core.arrays.CoreArrays` fanin
    order) assuming both endpoints are queried at their *primary* tuple:
    ``time0[dst] - time0[src] - delay`` for setup,
    ``time0[src] + delay - time0[dst]`` for hold.  Entries whose source
    is unreachable are ``inf`` (skip).  The deviation search corrects
    for a non-primary tuple at the *path* end with a per-pin additive
    adjustment and falls back to the fallback tuple of the *deviation*
    end only when its primary tuple's group is excluded — see
    ``run_topk`` in :mod:`repro.cppr.deviation`.

    The search walks the columns one element at a time, where list
    indexing beats numpy scalar access.  ``ptr``/``src``/``delay`` are
    Python lists shared by every pass over the graph; ``cost0`` is a
    ``memoryview`` of the pass's cost column (a list in an incremental
    session's maintained state), which indexes to the same Python
    floats without an ``O(m)`` conversion per pass.
    """

    __slots__ = ("ptr", "src", "delay", "cost0")

    def __init__(self, ptr: list[int], src: list[int],
                 delay: list[float], cost0: list[float]) -> None:
        self.ptr = ptr
        self.src = src
        self.delay = delay
        self.cost0 = cost0


def _fast_deviation(core: CoreArrays, time0: np.ndarray,
                    is_setup: bool) -> FastDeviation:
    """One vectorized pass over all fanin edges -> cost column."""
    t_src = time0[core.fanin_src]
    t_dst = time0[core.fanin_dst]
    with np.errstate(invalid="ignore"):
        if is_setup:
            cost0 = t_dst - t_src - core.fanin_late
            delay_list = core.fanin_late_list
        else:
            cost0 = t_src + core.fanin_early - t_dst
            delay_list = core.fanin_early_list
    # Unreachable sources give +inf; inf-inf (both ends unreachable,
    # never consulted by the walk) gives nan — normalize both to inf so
    # a single `== inf` test skips them.
    cost0[~np.isfinite(cost0)] = _INF
    return FastDeviation(core.fanin_ptr_list, core.fanin_src_list,
                         delay_list, memoryview(cost0))


def _seed_columns(seeds: Iterable) -> tuple[np.ndarray, np.ndarray,
                                            np.ndarray, int]:
    pins, times, froms = [], [], []
    for seed in seeds:
        pins.append(seed.pin)
        times.append(seed.time)
        froms.append(seed.from_pin)
    return (np.asarray(pins, dtype=np.int64),
            np.asarray(times, dtype=np.float64),
            np.asarray(froms, dtype=np.int64),
            len(pins))


def _beats(is_setup: bool, bt, at):
    """Element-wise "time ``bt`` is strictly more pessimistic"."""
    return bt > at if is_setup else bt < at


def _lex_beats(is_setup: bool, bt, bf, bg, at, af, ag):
    """Element-wise full tie-break: (time, from-pin, group)."""
    return (_beats(is_setup, bt, at)
            | ((bt == at) & ((bf < af) | ((bf == af) & (bg < ag)))))


def propagate_single_array(graph: TimingGraph, mode: AnalysisMode,
                           seeds: Iterable) -> "SingleArrivalArrays":
    """Array-backend standalone ungrouped forward pass."""
    from repro.cppr.propagation import SingleArrivalArrays

    faults.check("numpy.import")
    core = get_core(graph)
    n = graph.num_pins
    empty = mode.empty_time
    is_setup = mode.is_setup

    reduce_best = np.maximum.reduceat if is_setup else np.minimum.reduceat

    time0 = np.full(n, empty, dtype=np.float64)
    from0 = np.full(n, NO_NODE, dtype=np.int64)

    s_pin, s_t, s_f, num_seeds = _seed_columns(seeds)
    if num_seeds:
        # Seed batch: sort by pin with the tie-break as secondary keys.
        order = np.lexsort((s_f, -s_t if is_setup else s_t, s_pin))
        v, t, f = s_pin[order], s_t[order], s_f[order]
        starts = np.flatnonzero(np.r_[True, v[1:] != v[:-1]])
        time0[v[starts]] = t[starts]
        from0[v[starts]] = f[starts]

        for b in core.level_buckets:
            t = time0[b.src] + (b.late if is_setup else b.early)
            bt = reduce_best(t, b.estarts)
            active = bt != empty
            if not active.any():
                continue
            m = len(t)
            pos = np.where(t == bt[b.eseg], np.arange(m), m)
            first = np.minimum(np.minimum.reduceat(pos, b.estarts),
                               m - 1)
            bf = b.src[first]
            upd = b.seg_dst[active]
            b0t, b0f = bt[active], bf[active]
            c0t, c0f = time0[upd], from0[upd]
            take = (_beats(is_setup, b0t, c0t)
                    | ((b0t == c0t) & (b0f < c0f)))
            time0[upd] = np.where(take, b0t, c0t)
            from0[upd] = np.where(take, b0f, c0f)

    col = _obs.ACTIVE
    if col is not None:
        col.add("propagation.seeds", num_seeds)
        col.add("propagation.pins_visited",
                int((time0 != empty).sum()))

    fast = _fast_deviation(core, time0, is_setup)
    return SingleArrivalArrays(mode, time0.tolist(), from0.tolist(),
                               fast=fast)
