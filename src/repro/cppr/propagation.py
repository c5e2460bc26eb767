"""Forward arrival propagation for the CPPR candidate passes.

Two variants, matching the paper:

* :func:`propagate_dual` — the grouped propagation of Algorithm 2
  lines 8-13.  Every pin keeps the dual tuples of Table II (``at`` and the
  different-group fallback ``at'``); each processed pin offers both of its
  tuples across every outgoing edge.
* :func:`propagate_single` — the ungrouped propagation of Algorithms 3
  and 4 (self-loop and primary-input candidates), which needs no group
  bookkeeping and only one tuple per pin.

The engine's passes have two producers:

* :func:`propagate_dual` and :func:`propagate_single` below — the
  readable pure-Python references (``backend="scalar"``), pins walked
  in topological order.  They are the oracle the array backend is
  tested against and the path installs without numpy run.
* :func:`repro.core.batched.propagate_dual_batched` — the array
  backend: the ``D`` level passes *and* the self-loop and
  primary-input passes as one sweep over ``(2(D + 2), n)`` state
  matrices, served back row by row as :class:`DualArrivalArrays` or
  (rows ``D`` and ``D + 1``, one group each) :class:`SingleArrivalArrays`
  with the precomputed deviation-cost columns the search consumes.

Standalone single-tuple callers (the output family, the targeted
queries, the baselines) get the numpy relaxation of
:func:`repro.core.propagate.propagate_single_array` from
``propagate_single(..., backend="array")``.

All producers agree **exactly** (same times, same ``from`` pointers,
same groups) because all implement the shared tie-breaking contract:
among candidates with equal arrival time, the smaller ``from``-pin id
wins, then the smaller group id.  The scalar implementation spells the
rule out per offer; the array implementations get it from the
pre-sorted level buckets.  :class:`repro.cppr.tuples.DualArrival` is
the readable per-pin reference all are tested against.

Both store tuples in parallel arrays rather than per-pin objects: the
per-level passes dominate the engine's runtime, and flat columns of
floats and ints (lists, or ``memoryview`` rows of the batched sweep)
keep the inner loop tight.

Both array types expose the same ``auto(pin, excluded_group)`` query (the
paper's ``at_auto``), so the deviation search in
:mod:`repro.cppr.deviation` is written once for all path families.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.circuit.graph import TimingGraph
from repro.cppr.tuples import NO_GROUP, NO_NODE
from repro.obs import collector as _obs
from repro.sta.modes import AnalysisMode

__all__ = ["DualArrivalArrays", "SingleArrivalArrays", "Seed",
           "propagate_dual", "propagate_single"]


@dataclass(frozen=True, slots=True)
class Seed:
    """An initial arrival: a launch Q pin or a primary input.

    ``time`` already includes the clock arrival, clock-to-Q delay, and —
    for grouped/self-loop passes — the credit offset required by the
    family's ranking metric (Definitions 3-5).
    """

    pin: int
    time: float
    from_pin: int = NO_NODE
    group: int = NO_GROUP


@dataclass(slots=True)
class DualArrivalArrays:
    """Array-of-fields storage for the dual tuples of Table II.

    Two producers build these: the scalar loop below, whose columns
    are lists, and the batched sweep's per-level slices
    (:meth:`repro.core.batched.BatchedLevels.arrays`), whose columns
    are read-only ``memoryview`` rows — bit-for-bit identical.  ``fast``
    carries the precomputed deviation-cost columns
    (:class:`repro.core.propagate.FastDeviation`) when the batched
    sweep built this instance; the scalar loop leaves it ``None``.
    """

    mode: AnalysisMode
    time0: Sequence[float]
    from0: Sequence[int]
    group0: Sequence[int]
    time1: Sequence[float]
    from1: Sequence[int]
    group1: Sequence[int]
    fast: object | None = None

    def auto(self, pin: int,
             excluded_group: int) -> tuple[float, int, int] | None:
        """``at_auto(pin, gid)``: best arrival whose group != ``gid``."""
        empty = self.mode.empty_time
        if self.time0[pin] == empty:
            return None
        if self.group0[pin] != excluded_group:
            return (self.time0[pin], self.from0[pin], self.group0[pin])
        if self.time1[pin] == empty:
            return None
        return (self.time1[pin], self.from1[pin], self.group1[pin])

    def best(self, pin: int) -> tuple[float, int, int] | None:
        """The unconditional best tuple at ``pin`` (``at(pin)``)."""
        if self.time0[pin] == self.mode.empty_time:
            return None
        return (self.time0[pin], self.from0[pin], self.group0[pin])


@dataclass(slots=True)
class SingleArrivalArrays:
    """Single-tuple storage for the ungrouped passes.

    The columns are lists from :func:`propagate_single`, or read-only
    ``memoryview`` rows of the batched sweep.  ``fast`` is the array
    backend's precomputed deviation-cost column, or ``None`` from the
    scalar backend.
    """

    mode: AnalysisMode
    time: Sequence[float]
    from_pin: Sequence[int]
    fast: object | None = None

    def auto(self, pin: int,
             excluded_group: int) -> tuple[float, int, int] | None:
        """Same interface as the dual arrays; the group is ignored."""
        if self.time[pin] == self.mode.empty_time:
            return None
        return (self.time[pin], self.from_pin[pin], NO_GROUP)

    def best(self, pin: int) -> tuple[float, int, int] | None:
        return self.auto(pin, NO_GROUP)


def propagate_dual(graph: TimingGraph, mode: AnalysisMode,
                   seeds: Iterable[Seed]) -> DualArrivalArrays:
    """Grouped forward pass (Algorithm 2 lines 1-13), scalar reference.

    Runs in ``O(n)`` per call: each data edge is relaxed with at most two
    candidate tuples.  The update rule is the one proven correct in
    :class:`repro.cppr.tuples.DualArrival`.  The array backend's
    producer is :func:`repro.core.batched.propagate_dual_batched` (see
    module docstring).
    """
    n = graph.num_pins
    empty = mode.empty_time
    is_setup = mode.is_setup
    time0 = [empty] * n
    from0 = [NO_NODE] * n
    group0 = [NO_GROUP] * n
    time1 = [empty] * n
    from1 = [NO_NODE] * n
    group1 = [NO_GROUP] * n

    def offer(v: int, t: float, frm: int, gid: int) -> None:
        t0 = time0[v]
        if t0 == empty:
            time0[v] = t
            from0[v] = frm
            group0[v] = gid
            return
        if gid == group0[v]:
            if (t > t0) if is_setup else (t < t0):
                time0[v] = t
                from0[v] = frm
            elif t == t0 and frm < from0[v]:
                from0[v] = frm
            return
        if (((t > t0) if is_setup else (t < t0))
                or (t == t0 and (frm < from0[v]
                                 or (frm == from0[v]
                                     and gid < group0[v])))):
            time1[v] = t0
            from1[v] = from0[v]
            group1[v] = group0[v]
            time0[v] = t
            from0[v] = frm
            group0[v] = gid
        else:
            t1 = time1[v]
            if (t1 == empty or ((t > t1) if is_setup else (t < t1))
                    or (t == t1 and (frm < from1[v]
                                     or (frm == from1[v]
                                         and gid < group1[v])))):
                time1[v] = t
                from1[v] = frm
                group1[v] = gid

    col = _obs.ACTIVE
    counting = col is not None
    pins_visited = 0
    num_seeds = 0

    for seed in seeds:
        num_seeds += 1
        offer(seed.pin, seed.time, seed.from_pin, seed.group)

    fanout = graph.fanout
    for u in graph.topo_order:
        t0 = time0[u]
        if t0 == empty:
            continue
        if counting:
            pins_visited += 1
        g0 = group0[u]
        t1 = time1[u]
        g1 = group1[u]
        has_fallback = t1 != empty
        for v, delay_early, delay_late in fanout[u]:
            delay = delay_late if is_setup else delay_early
            offer(v, t0 + delay, u, g0)
            if has_fallback:
                offer(v, t1 + delay, u, g1)

    if counting:
        col.add("propagation.seeds", num_seeds)
        col.add("propagation.pins_visited", pins_visited)

    return DualArrivalArrays(mode, time0, from0, group0,
                             time1, from1, group1)


def propagate_single(graph: TimingGraph, mode: AnalysisMode,
                     seeds: Iterable[Seed],
                     backend: str = "scalar") -> SingleArrivalArrays:
    """Ungrouped forward pass (Algorithm 3 lines 1-12 / Algorithm 4)."""
    if backend == "array":
        from repro.core.propagate import propagate_single_array
        return propagate_single_array(graph, mode, seeds)

    n = graph.num_pins
    empty = mode.empty_time
    is_setup = mode.is_setup
    time = [empty] * n
    from_pin = [NO_NODE] * n

    col = _obs.ACTIVE
    counting = col is not None
    pins_visited = 0
    num_seeds = 0

    for seed in seeds:
        num_seeds += 1
        t0 = time[seed.pin]
        if (t0 == empty or ((seed.time > t0) if is_setup
                            else (seed.time < t0))
                or (seed.time == t0
                    and seed.from_pin < from_pin[seed.pin])):
            time[seed.pin] = seed.time
            from_pin[seed.pin] = seed.from_pin

    fanout = graph.fanout
    for u in graph.topo_order:
        t0 = time[u]
        if t0 == empty:
            continue
        if counting:
            pins_visited += 1
        for v, delay_early, delay_late in fanout[u]:
            t = t0 + (delay_late if is_setup else delay_early)
            tv = time[v]
            if (tv == empty or ((t > tv) if is_setup else (t < tv))
                    or (t == tv and u < from_pin[v])):
                time[v] = t
                from_pin[v] = u

    if counting:
        col.add("propagation.seeds", num_seeds)
        col.add("propagation.pins_visited", pins_visited)

    return SingleArrivalArrays(mode, time, from_pin)
