"""The ``propagation`` stage's maintained state, and its dirty replay.

A :class:`ModeState` holds everything the candidate passes would have
propagated for one analysis mode: the dual-tuple columns of every
clock-tree level plus the single-tuple self-loop / primary-input
columns, each with its launch-seed map and (on the array substrate) its
deviation-cost column.  Built once per mode via the ordinary producers
— the batched sweep, whose rows ``D`` and ``D + 1`` are the self-loop
and primary-input passes, or the scalar per-family passes — and then
*maintained* across delay edits by :func:`replay`.

Replay is exact, not approximate, because the dual-tuple state is an
**order-independent function of each pin's candidate multiset** (the
correctness anchor of :mod:`repro.core.propagate`): ``best`` is the
lexicographically most pessimistic candidate — time, then smaller
from-pin, then smaller group — and ``fallback`` the most pessimistic
whose group differs from ``best``'s.  A pin's candidates are its launch
seed plus, per fanin edge, the source's two tuples shifted by the edge
delay (the same two-operand ``t + delay`` the producers compute).
Recomputing the winners directly at each dirty pin, in topological
order so sources are final first, therefore lands bit-for-bit in the
state a from-scratch sweep of the edited graph would produce.  The
single-tuple rows keep their own one-tuple kernel: a one-group row's
fallback is always empty (``docs/PROOFS.md`` L7), so :func:`replay`
recomputes only its best tuple.

:class:`SessionBatch` then serves the maintained columns back to the
unmodified candidate passes through the same row-indexed ``batch``
protocol the batched sweep uses, so a re-run family is the fresh
engine's result by construction.
"""

from __future__ import annotations

import math

from repro.circuit.graph import TimingGraph
from repro.cppr.grouping import group_for_level
from repro.cppr.level_paths import level_capture_seeds, level_seed_map
from repro.cppr.pi_paths import primary_input_seed_map
from repro.cppr.propagation import (DualArrivalArrays, Seed,
                                    SingleArrivalArrays, propagate_dual,
                                    propagate_single)
from repro.cppr.selfloop_paths import self_loop_seed_map
from repro.cppr.tuples import NO_GROUP, NO_NODE
from repro.obs import collector as _obs
from repro.sta.modes import AnalysisMode

__all__ = ["LevelState", "ModeState", "SessionBatch", "build_mode_state",
           "diff_states", "refresh_costs", "replay", "reseed"]

_INF = float("inf")


class LevelState:
    """One level's dual-tuple columns, seeds, and cost column."""

    __slots__ = ("time0", "from0", "group0", "time1", "from1", "group1",
                 "cost0", "seeds")

    def __init__(self, time0, from0, group0, time1, from1, group1,
                 cost0, seeds) -> None:
        self.time0 = time0
        self.from0 = from0
        self.group0 = group0
        self.time1 = time1
        self.from1 = from1
        self.group1 = group1
        self.cost0 = cost0
        self.seeds = seeds


class SingleState:
    """One ungrouped family's single-tuple columns, seeds, and costs."""

    __slots__ = ("time", "from_pin", "cost0", "seeds")

    def __init__(self, time, from_pin, cost0, seeds) -> None:
        self.time = time
        self.from_pin = from_pin
        self.cost0 = cost0
        self.seeds = seeds


class ModeState:
    """All maintained propagation state for one analysis mode.

    Row indexing convention (shared with :mod:`repro.pipeline.bounds`
    and the session's change tracking): rows ``0 .. D-1`` are the level
    states, row ``D`` the self-loop state, row ``D+1`` the
    primary-input state.  Disabled single families hold ``None``.
    """

    __slots__ = ("mode", "levels", "self_loop", "primary_input")

    def __init__(self, mode: AnalysisMode, levels: list[LevelState],
                 self_loop: SingleState | None,
                 primary_input: SingleState | None) -> None:
        self.mode = mode
        self.levels = levels
        self.self_loop = self_loop
        self.primary_input = primary_input

    @property
    def num_rows(self) -> int:
        return len(self.levels) + 2

    def row(self, index: int) -> LevelState | SingleState | None:
        if index < len(self.levels):
            return self.levels[index]
        if index == len(self.levels):
            return self.self_loop
        return self.primary_input


def _seeds(seed_map: dict) -> list[Seed]:
    return [Seed(pin, *seed) for pin, seed in seed_map.items()]


def build_mode_state(graph: TimingGraph, mode: AnalysisMode,
                     substrate: str, include_self_loops: bool,
                     include_primary_inputs: bool) -> ModeState:
    """Build the mode's full state via the ordinary producers.

    On the array substrate one batched sweep yields every row: the
    levels, then the self-loop (row ``D``) and primary-input (row
    ``D + 1``) passes.  The scalar substrate runs each family's
    reference pass.  Either way the session owns its columns as lists,
    because :func:`replay` and :func:`refresh_costs` patch them in
    place.
    """
    mode = AnalysisMode.coerce(mode)
    tree = graph.clock_tree
    num_levels = tree.num_levels
    num_ffs = graph.num_ffs
    levels: list[LevelState] = []
    batch = None

    if substrate == "array":
        from repro.core.batched import propagate_dual_batched
        batch = propagate_dual_batched(graph, mode)
        for d in range(num_levels):
            seeds = level_seed_map(graph, mode, batch.grouping(d))
            levels.append(LevelState(
                batch.time0[d].tolist(), batch.from0[d].tolist(),
                batch.group0[d].tolist(), batch.time1[d].tolist(),
                batch.from1[d].tolist(), batch.group1[d].tolist(),
                batch.cost0[d].tolist(), seeds))
    else:
        for d in range(num_levels):
            grouping = group_for_level(tree, d, num_ffs, substrate)
            seeds = level_seed_map(graph, mode, grouping)
            arrays = propagate_dual(graph, mode, _seeds(seeds))
            levels.append(LevelState(
                arrays.time0, arrays.from0, arrays.group0, arrays.time1,
                arrays.from1, arrays.group1, None, seeds))

    singles: list[SingleState | None] = []
    for row, wanted, seed_map in (
            (num_levels, include_self_loops, self_loop_seed_map),
            (num_levels + 1, include_primary_inputs,
             primary_input_seed_map)):
        if not wanted:
            singles.append(None)
            continue
        seeds = seed_map(graph, mode)
        if batch is None:
            arrays = propagate_single(graph, mode, _seeds(seeds))
            singles.append(SingleState(arrays.time, arrays.from_pin, None,
                                       seeds))
        else:
            singles.append(SingleState(
                batch.time0[row].tolist(), batch.from0[row].tolist(),
                batch.cost0[row].tolist(), seeds))
    return ModeState(mode, levels, *singles)


def reseed(state: ModeState, graph: TimingGraph, substrate: str) -> None:
    """Recompute every launch-seed map against the graph's current tree.

    Used after a clock update: group *structure* is topology-keyed and
    unchanged, but arrivals, credits, and launch offsets moved for the
    flip-flops under the edited subtree.  The affected Q pins then enter
    the dirty cone so :func:`replay` refolds the new seeds into the
    state.
    """
    tree = graph.clock_tree
    num_ffs = graph.num_ffs
    backend = "array" if substrate == "array" else "scalar"
    for d, level in enumerate(state.levels):
        grouping = group_for_level(tree, d, num_ffs, backend)
        level.seeds = level_seed_map(graph, state.mode, grouping)
    if state.self_loop is not None:
        state.self_loop.seeds = self_loop_seed_map(graph, state.mode)
    if state.primary_input is not None:
        state.primary_input.seeds = primary_input_seed_map(graph,
                                                           state.mode)


# ----------------------------------------------------------------------
# Canonical per-pin recompute (the replay kernel)
# ----------------------------------------------------------------------
def _dual_winners(cands: list[tuple[float, int, int]], is_setup: bool):
    best = cands[0]
    for c in cands:
        t, f, g = c
        bt, bf, bg = best
        if (((t > bt) if is_setup else (t < bt))
                or (t == bt and (f < bf or (f == bf and g < bg)))):
            best = c
    fb = None
    bg = best[2]
    for c in cands:
        if c[2] == bg:
            continue
        if fb is None:
            fb = c
            continue
        t, f, g = c
        ft, ff_, fg = fb
        if (((t > ft) if is_setup else (t < ft))
                or (t == ft and (f < ff_ or (f == ff_ and g < fg)))):
            fb = c
    return best, fb


def replay(state: ModeState, graph: TimingGraph, cone: list[int]
           ) -> tuple[list[set[int]], list[dict[int, float]]]:
    """Directly recompute every row's tuples at the cone's pins.

    ``cone`` must be in topological order (see
    :func:`repro.pipeline.dirty.fanout_cone`).  Returns per-row
    ``changed`` pin sets and the pins' pre-replay primary times (the
    pessimization inputs for :mod:`repro.pipeline.bounds`).
    """
    mode = state.mode
    is_setup = mode.is_setup
    empty = mode.empty_time
    fanin = graph.fanin
    levels = state.levels
    num_levels = len(levels)
    changed: list[set[int]] = [set() for _ in range(num_levels + 2)]
    old_times: list[dict[int, float]] = [{} for _ in range(num_levels + 2)]

    col = _obs.ACTIVE
    if col is not None:
        # One replayed cell per (pin, row): D level rows plus the
        # self-loop and primary-input rows.
        col.add("replay.pins", len(cone))
        col.add("replay.cells", len(cone) * (num_levels + 2))

    singles = ((num_levels, state.self_loop),
               (num_levels + 1, state.primary_input))

    for pin in cone:
        fanin_row = fanin[pin]
        for d, level in enumerate(levels):
            cands: list[tuple[float, int, int]] = []
            seed = level.seeds.get(pin)
            if seed is not None:
                cands.append(seed)
            time0 = level.time0
            time1 = level.time1
            for w, delay_early, delay_late in fanin_row:
                delay = delay_late if is_setup else delay_early
                t0 = time0[w]
                if t0 == empty:
                    continue
                cands.append((t0 + delay, w, level.group0[w]))
                t1 = time1[w]
                if t1 != empty:
                    cands.append((t1 + delay, w, level.group1[w]))
            if cands:
                best, fb = _dual_winners(cands, is_setup)
            else:
                best, fb = None, None
            n0 = best if best is not None else (empty, NO_NODE, NO_GROUP)
            n1 = fb if fb is not None else (empty, NO_NODE, NO_GROUP)
            if (time0[pin] != n0[0] or level.from0[pin] != n0[1]
                    or level.group0[pin] != n0[2] or time1[pin] != n1[0]
                    or level.from1[pin] != n1[1]
                    or level.group1[pin] != n1[2]):
                changed[d].add(pin)
                old_times[d].setdefault(pin, time0[pin])
                time0[pin] = n0[0]
                level.from0[pin] = n0[1]
                level.group0[pin] = n0[2]
                time1[pin] = n1[0]
                level.from1[pin] = n1[1]
                level.group1[pin] = n1[2]

        for row_index, single in singles:
            if single is None:
                continue
            time = single.time
            bt = empty
            bf = NO_NODE
            seed = single.seeds.get(pin)
            if seed is not None:
                bt, bf = seed
            for w, delay_early, delay_late in fanin_row:
                tw = time[w]
                if tw == empty:
                    continue
                t = tw + (delay_late if is_setup else delay_early)
                if (bt == empty or ((t > bt) if is_setup else (t < bt))
                        or (t == bt and w < bf)):
                    bt = t
                    bf = w
            if time[pin] != bt or single.from_pin[pin] != bf:
                changed[row_index].add(pin)
                old_times[row_index].setdefault(pin, time[pin])
                time[pin] = bt
                single.from_pin[pin] = bf

    return changed, old_times


def diff_states(old: ModeState, new: ModeState
                ) -> tuple[list[set[int]], list[dict[int, float]]]:
    """Per-row changed pins (and their old primary times) between builds.

    The full-rebuild fallback's substitute for :func:`replay`'s change
    tracking: when the dirty cone was too large to replay, the state is
    rebuilt wholesale and the rows diffed so family-serving decisions
    still know exactly what moved.
    """
    num_levels = len(old.levels)
    changed: list[set[int]] = [set() for _ in range(num_levels + 2)]
    old_times: list[dict[int, float]] = [{} for _ in range(num_levels + 2)]
    for d in range(num_levels):
        a, b = old.levels[d], new.levels[d]
        ch = changed[d]
        ot = old_times[d]
        for pin, (t0a, t0b) in enumerate(zip(a.time0, b.time0)):
            if (t0a != t0b or a.from0[pin] != b.from0[pin]
                    or a.group0[pin] != b.group0[pin]
                    or a.time1[pin] != b.time1[pin]
                    or a.from1[pin] != b.from1[pin]
                    or a.group1[pin] != b.group1[pin]):
                ch.add(pin)
                ot[pin] = t0a
    for row_index, a, b in ((num_levels, old.self_loop, new.self_loop),
                            (num_levels + 1, old.primary_input,
                             new.primary_input)):
        if a is None or b is None:
            continue
        ch = changed[row_index]
        ot = old_times[row_index]
        for pin, (ta, tb) in enumerate(zip(a.time, b.time)):
            if ta != tb or a.from_pin[pin] != b.from_pin[pin]:
                ch.add(pin)
                ot[pin] = ta
    return changed, old_times


# ----------------------------------------------------------------------
# Deviation-cost column maintenance (array substrate only)
# ----------------------------------------------------------------------
def refresh_costs(state: ModeState, core, changed: list[set[int]],
                  edited_positions: list[int]) -> int:
    """Patch each row's cost column where an endpoint or delay moved.

    A fanin position's cost depends on the row's primary times at its
    two endpoints and the edge delay, so the positions to recompute are
    the edited runs plus every position adjacent to a changed pin.
    Recomputes with the producers' exact formula (any non-finite result
    collapses to ``+inf``).  Returns the number of entries rewritten.
    """
    structure = core.structure
    ptr = structure.fanin_ptr_list
    src_list = structure.fanin_src_list
    dst_list = structure.fanin_dst_list
    by_src_order, by_src_starts = structure.fanin_by_src()
    is_setup = state.mode.is_setup
    delay_list = (core.fanin_late_list if is_setup
                  else core.fanin_early_list)
    isfinite = math.isfinite
    patched = 0

    num_levels = len(state.levels)
    for row_index in range(num_levels + 2):
        row = state.row(row_index)
        if row is None or row.cost0 is None:
            continue
        ch = changed[row_index]
        if not ch and not edited_positions:
            continue
        positions = set(edited_positions)
        for pin in ch:
            positions.update(range(ptr[pin], ptr[pin + 1]))
            positions.update(
                by_src_order[by_src_starts[pin]:by_src_starts[pin + 1]])
        time = row.time0 if row_index < num_levels else row.time
        cost0 = row.cost0
        for i in positions:
            t_src = time[src_list[i]]
            t_dst = time[dst_list[i]]
            if is_setup:
                c = (t_dst - t_src) - delay_list[i]
            else:
                c = (t_src + delay_list[i]) - t_dst
            cost0[i] = c if isfinite(c) else _INF
        patched += len(positions)
    return patched


# ----------------------------------------------------------------------
# Serving the maintained state back to the candidate passes
# ----------------------------------------------------------------------
class SessionBatch:
    """A :class:`ModeState` view speaking the batched-sweep protocol.

    Every family pass given ``batch=session_batch`` consumes its row's
    maintained columns, and their capture seeds, exactly as it would a
    :class:`~repro.core.batched.BatchedLevels` row: rows ``0 .. D-1``
    are the levels, row ``D`` the self-loop and row ``D + 1`` the
    primary-input state.
    """

    __slots__ = ("state", "graph", "core", "backend")

    def __init__(self, state: ModeState, graph: TimingGraph,
                 core, substrate: str) -> None:
        self.state = state
        self.graph = graph
        self.core = core
        self.backend = "array" if substrate == "array" else "scalar"

    @property
    def num_levels(self) -> int:
        return len(self.state.levels)

    def grouping(self, level: int):
        return group_for_level(self.graph.clock_tree, level,
                               self.graph.num_ffs, self.backend)

    def num_seeds(self, row: int) -> int:
        return len(self.state.row(row).seeds)

    def _fast(self, cost0):
        if cost0 is None or self.core is None:
            return None
        from repro.core.propagate import FastDeviation
        core = self.core
        delay = (core.fanin_late_list if self.state.mode.is_setup
                 else core.fanin_early_list)
        return FastDeviation(core.fanin_ptr_list, core.fanin_src_list,
                             delay, cost0)

    def arrays(self, row: int) -> DualArrivalArrays | SingleArrivalArrays:
        state = self.state.row(row)
        fast = self._fast(state.cost0)
        if row >= self.num_levels:
            return SingleArrivalArrays(self.state.mode, state.time,
                                       state.from_pin, fast=fast)
        return DualArrivalArrays(
            self.state.mode, state.time0, state.from0, state.group0,
            state.time1, state.from1, state.group1, fast=fast)

    def capture_seeds(self, row: int, analyzer) -> list:
        grouping = self.grouping(row) if row < self.num_levels else None
        return level_capture_seeds(analyzer, grouping, self.arrays(row),
                                   self.state.mode)
