"""Deviation-edge top-k path search (paper Algorithm 5 and Figure 4).

A path is represented *implicitly* by its capture pin, its excluded group,
and a list of deviation edges relative to the arrival-tuple ``from``
pointers.  Popping the current best path from a min-max heap and pushing
every one-edge deviation of it enumerates paths in non-decreasing slack
order, because each deviation's cost — the arrival-time loss of entering a
node through a sub-optimal edge — is non-negative by construction of the
arrival tuples.

The heap is capacity-bounded at ``k`` (or the caller-provided capacity):
at most ``k`` paths are ever popped, so an entry worse than ``k`` stored
others can never be reported and is evicted via the min-max heap's
delete-max.  This yields the ``O(k)`` live-path bound behind the paper's
space-complexity theorem.

The same bound pre-selects the seeds.  The heap orders entries by
(key, insertion order) and every seed is pushed before the first pop,
so bounded pushes of all seeds would keep exactly the ``capacity``
first in (slack, input order) and reject or evict every other one
before it could pop.  The search therefore pushes only
``heapq.nsmallest(capacity, seeds)`` — stable, so ties keep their input
order — and the heap then holds the same entries in the same order
(``docs/PROOFS.md`` L6).  ``deviation.seeds`` still counts every seed;
``heap.reject`` and ``heap.evict`` count deviation pushes only.

The same engine serves all candidate families; grouped passes supply
:class:`~repro.cppr.propagation.DualArrivalArrays` (whose ``auto`` honours
the excluded group) and ungrouped passes supply
:class:`~repro.cppr.propagation.SingleArrivalArrays`.

When the arrival arrays were produced by the array backend they carry a
:class:`~repro.core.propagate.FastDeviation` in their ``fast`` slot:
per-edge deviation costs precomputed in one vectorized pass over the
fanin CSR.  The expansion loop then reads a single precomputed cost per
edge — ``cost0[i]`` plus a per-pin adjustment when the popped tuple is
not the pin's primary one — and only falls back to an ``auto()`` query
for the rare edge whose source's primary group is the excluded group.
Both loops compute identical costs; the scalar loop is the reference.
The search only indexes the arrival and cost columns, so they may be
Python lists or, for a batched level, zero-copy ``memoryview`` rows of
the sweep matrices.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple, Protocol

from repro.circuit.graph import TimingGraph
from repro.cppr.tuples import NO_GROUP
from repro.ds.minmax_heap import MinMaxHeap
from repro.exceptions import AnalysisError
from repro.obs import collector as _obs
from repro.sta.modes import AnalysisMode

__all__ = ["CaptureSeed", "SearchResult", "run_topk"]


class _ArrivalArrays(Protocol):
    def auto(self, pin: int,
             excluded_group: int) -> tuple[float, int, int] | None: ...


class CaptureSeed(NamedTuple):
    """The best path into one capture point (Algorithm 5 lines 3-7).

    ``group`` is the capture group to exclude (``f_{d+1}`` of the capture
    clock pin) for level passes, or ``NO_GROUP`` for ungrouped families.
    A tuple, because every query builds one per reached flip-flop and
    row (a frozen dataclass's ``__init__`` costs twice as much).
    """

    slack: float
    capture_pin: int
    group: int = NO_GROUP
    capture_ff: int | None = None


_slack = attrgetter("slack")


@dataclass(frozen=True, slots=True)
class _SearchState:
    """An implicit path on the heap: position + deviation list."""

    pos: int
    group: int
    devlist: tuple[tuple[int, int], ...]
    capture_pin: int
    capture_ff: int | None


@dataclass(frozen=True, slots=True)
class SearchResult:
    """One reported path: its ranking slack and explicit pin sequence."""

    slack: float
    pins: tuple[int, ...]
    capture_pin: int
    capture_ff: int | None


def _materialize(graph: TimingGraph, arrays: _ArrivalArrays,
                 state: _SearchState) -> tuple[int, ...]:
    """Expand an implicit path into its explicit pin sequence.

    Walk backward from the capture pin following ``at_auto`` ``from``
    pointers, applying the deviation edges in order: deviations were
    appended sink-to-source, so the i-th deviation is the i-th departure
    from the pointer chain encountered on the walk.
    """
    pins: list[int] = []
    devlist = state.devlist
    dev_index = 0
    is_clock_pin = graph.is_clock_pin
    pin = state.capture_pin
    while True:
        pins.append(pin)
        if dev_index < len(devlist) and devlist[dev_index][1] == pin:
            pin = devlist[dev_index][0]
            dev_index += 1
            continue
        record = arrays.auto(pin, state.group)
        if record is None:  # pragma: no cover - defensive
            raise AnalysisError(
                f"broken arrival chain at pin {graph.pin_name(pin)!r}")
        from_pin = record[1]
        if from_pin < 0 or is_clock_pin[from_pin]:
            break
        pin = from_pin
    if dev_index != len(devlist):  # pragma: no cover - defensive
        raise AnalysisError("unconsumed deviation edges while expanding "
                            "a path; arrival tuples are inconsistent")
    pins.reverse()
    return tuple(pins)


def run_topk(graph: TimingGraph, arrays: _ArrivalArrays,
             seeds: list[CaptureSeed], k: int, mode: AnalysisMode,
             heap_capacity: int | None = None) -> list[SearchResult]:
    """Report up to ``k`` paths in non-decreasing ranking-slack order.

    ``seeds`` hold the best path per capture point; deviations generate
    every other path lazily.  ``heap_capacity`` defaults to ``k`` (always
    sufficient; see module docstring) but may be raised for the unbounded-
    heap ablation study.
    """
    if k < 1:
        raise AnalysisError(f"k must be at least 1, got {k}")
    capacity = heap_capacity if heap_capacity is not None else k
    if capacity < k:
        raise AnalysisError(
            f"heap capacity {capacity} is smaller than k={k}")
    is_setup = mode.is_setup
    is_clock_pin = graph.is_clock_pin
    fanin = graph.fanin

    # Array-backend fast path: precomputed per-edge deviation costs over
    # the fanin CSR (see module docstring).  ``None`` from the scalar
    # backend, in which case the reference loop below runs.
    fast = getattr(arrays, "fast", None)
    if fast is not None:
        fptr = fast.ptr
        fsrc = fast.src
        fdelay = fast.delay
        fcost0 = fast.cost0
        group0 = getattr(arrays, "group0", None)
        if group0 is not None:
            t0col = arrays.time0
            t1col = arrays.time1
        else:
            t0col = arrays.time
            t1col = None
        empty = mode.empty_time
        inf = float("inf")

    # Deviation-work counters: accumulated in locals and reported once at
    # the end so the disabled path costs one cheap local test per edge.
    col = _obs.ACTIVE
    counting = col is not None
    edges_explored = 0
    edges_generated = 0

    # Only the ``capacity`` best seeds, in (slack, input order), can
    # ever pop; pushing just those leaves the heap exactly as pushing
    # every seed would (see module docstring).
    heap = MinMaxHeap()
    for seed in heapq.nsmallest(capacity, seeds, key=_slack):
        heap.push(seed.slack,
                  _SearchState(seed.capture_pin, seed.group, (),
                               seed.capture_pin, seed.capture_ff))

    results: list[SearchResult] = []
    while heap and len(results) < k:
        slack, state = heap.pop_min()
        results.append(SearchResult(slack, _materialize(graph, arrays, state),
                                    state.capture_pin, state.capture_ff))
        if len(results) == k:
            break

        # Enumerate one-edge deviations along the path's backward walk
        # (Algorithm 5 lines 11-20).
        group = state.group
        devlist = state.devlist
        pin = state.pos
        while True:
            record = arrays.auto(pin, group)
            if record is None:  # pragma: no cover - defensive
                raise AnalysisError(
                    f"broken arrival chain at pin {graph.pin_name(pin)!r}")
            time_here, from_pin, _grp = record
            if fast is not None:
                # ``cost0[i] + adj`` equals the scalar cost below: the
                # adjustment re-bases the precomputed (primary-tuple)
                # cost onto the tuple actually popped at ``pin``.
                lo = fptr[pin]
                hi = fptr[pin + 1]
                if counting:
                    edges_explored += hi - lo
                adj = (time_here - t0col[pin] if is_setup
                       else t0col[pin] - time_here)
                for i in range(lo, hi):
                    w = fsrc[i]
                    if w == from_pin:
                        continue
                    if group0 is None or group0[w] != group:
                        cost = fcost0[i] + adj
                        if cost == inf:
                            continue
                    else:
                        t1 = t1col[w]
                        if t1 == empty:
                            continue
                        cost = (time_here - t1 - fdelay[i] if is_setup
                                else t1 + fdelay[i] - time_here)
                    if counting:
                        edges_generated += 1
                    heap.push_bounded(
                        slack + cost,
                        _SearchState(w, group, devlist + ((w, pin),),
                                     state.capture_pin, state.capture_ff),
                        capacity)
                if from_pin < 0 or is_clock_pin[from_pin]:
                    break
                pin = from_pin
                continue
            if counting:
                edges_explored += len(fanin[pin])
            for w, delay_early, delay_late in fanin[pin]:
                if w == from_pin:
                    continue
                w_record = arrays.auto(w, group)
                if w_record is None:
                    continue
                delay = delay_late if is_setup else delay_early
                if is_setup:
                    cost = time_here - w_record[0] - delay
                else:
                    cost = w_record[0] + delay - time_here
                if counting:
                    edges_generated += 1
                heap.push_bounded(
                    slack + cost,
                    _SearchState(w, group, devlist + ((w, pin),),
                                 state.capture_pin, state.capture_ff),
                    capacity)
            if from_pin < 0 or is_clock_pin[from_pin]:
                break
            pin = from_pin

    if counting:
        col.add("deviation.seeds", len(seeds))
        col.add("deviation.edges_explored", edges_explored)
        col.add("deviation.edges_generated", edges_generated)
        col.add("deviation.paths_reported", len(results))
        heap.flush_counters(col)

    return results
