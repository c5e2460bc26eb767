"""Slack lower bounds for edit-crossing paths (family-serve proofs).

After a delay edit whose cone never touched a family's arrival state,
the only way the family's cached top-``k`` could differ from a re-run
is through a path that *crosses an edited edge*: every other heap entry
of the deviation search is bit-identical (same seeds, same state, same
costs).  This module computes, per state row, a lower bound ``sigma``
on the ranking slack of **any** path through **any** edited run —
under both the old and the new delays — via one backward min-sweep
over the fanout cone of the edited sinks:

* setup: ``R[x] = min`` over captures/paths of ``cap(c) - dist_late(x
  -> c)`` seeded with ``cap = at_early + period - t_setup`` at each
  participating capture D pin and relaxed backward with
  ``R[u] = min(R[u], R[v] - late(u, v))``; then for an edited run
  ``u -> v``, ``sigma = R[v] - pess_late(run) - T[u]`` with ``T`` the
  row's most pessimistic arrival at ``u`` (old and new).
* hold: the mirror image with ``G`` seeded ``-(at_late + t_hold)``,
  relaxed ``G[u] = min(G[u], early(u, v) + G[v])``, and
  ``sigma = T[u] + pess_early(run) + G[v]``.

Sweeping only the cone is exact, not an approximation.  ``sigma`` reads
``R``/``G`` only at edited sinks ``v``, and ``R[v]`` is a min over paths
*leaving* ``v``: it depends only on the pins, edge delays and capture
seeds of ``v``'s fanout cone.  Any fanout-closed pin set that holds
every edited sink — the session's dirty cone, or the union cone a
multi-corner session shares — therefore gives every ``R[v]`` the same
float a whole-graph sweep computes, by the same per-edge arithmetic,
with only the D pins inside the set seeded.  The whole graph is swept
only without a cone (the session's full-rebuild fallback), vectorized
on the array substrate.

``pess`` pessimizes each edited run over every delay value it held
during the update batch (old and new), so ``sigma`` bounds the cached
run and the hypothetical re-run simultaneously.  A cached family whose
state rows are untouched is then served iff ``sigma`` strictly exceeds
its k-th cached slack (its *boundary*) — every edit-crossing heap entry
in either run keys above the boundary, so the first ``k`` pops (and
their tie-break counters, which only order the identical below-boundary
entries relative to one another) cannot differ.  A family cached with
fewer than ``k`` paths has an infinite boundary and is served only when
``sigma`` is itself infinite (no edited run reaches any capture in the
row at all).

The returned bounds shave a relative epsilon (:data:`SIGMA_SLOP`) so
floating-point rounding along a telescoped path sum can never push a
real edit-crossing path below a bound that claims strictness.
"""

from __future__ import annotations

from repro.circuit.graph import TimingGraph
from repro.cppr.grouping import group_for_level
from repro.obs import collector as _obs
from repro.pipeline.state import ModeState

__all__ = ["SIGMA_SLOP", "sigma_min"]

_INF = float("inf")

#: Relative safety margin subtracted from every finite bound.
SIGMA_SLOP = 1e-9


def _capture_seed(graph: TimingGraph, ff_index: int, is_setup: bool,
                  clock_period: float) -> float:
    """The sweep's seed at flip-flop ``ff_index``'s D pin."""
    ff = graph.ffs[ff_index]
    tree = graph.clock_tree
    if is_setup:
        return tree.at_early(ff.tree_node) + clock_period - ff.t_setup
    return -(tree.at_late(ff.tree_node) + ff.t_hold)


def _row_groups(graph: TimingGraph, state: ModeState, rows: list[int],
                backend: str) -> list[list[int] | None]:
    """Per requested row, its level's group column.

    A flip-flop's capture seeds the row iff its group is ``>= 0``;
    ``None`` (the self-loop and primary-input rows) seeds every one.
    """
    tree = graph.clock_tree
    num_levels = len(state.levels)
    return [group_for_level(tree, row, graph.num_ffs, backend).group
            if row < num_levels else None for row in rows]


def _evaluate(state: ModeState, rows: list[int], reach, runs,
              old_times: list[dict[int, float]],
              is_setup: bool) -> dict[int, float]:
    """Fold the sweep results into one ``sigma`` per requested row.

    ``reach[i][v]`` is row ``i``'s ``R``/``G`` value at pin ``v``.
    """
    num_levels = len(state.levels)
    result: dict[int, float] = {}
    for i, row in enumerate(rows):
        state_row = state.row(row)
        time = (state_row.time0 if row < num_levels else state_row.time)
        olds = old_times[row]
        row_reach = reach[i]
        sigma = _INF
        for u, v, pess in runs:
            r = float(row_reach[v])
            if r == _INF:
                continue
            t = time[u]
            old = olds.get(u)
            if old is not None:
                t = max(t, old) if is_setup else min(t, old)
            if t == (-_INF if is_setup else _INF):
                continue
            s = (r - pess) - t if is_setup else (t + pess) + r
            if s < sigma:
                sigma = s
        if sigma != _INF:
            sigma -= SIGMA_SLOP * max(1.0, abs(sigma))
        result[row] = sigma
    return result


def sigma_min(graph: TimingGraph, core, state: ModeState,
              rows: list[int],
              runs: list[tuple[int, int, float]],
              old_times: list[dict[int, float]],
              clock_period: float, substrate: str,
              cone: list[int] | None = None) -> dict[int, float]:
    """Per requested row, the min ``sigma`` over all edited runs.

    ``runs`` holds ``(u, v, pess)`` with ``pess`` already pessimized
    over every value the run held during the batch (late-max for setup,
    early-min for hold).  ``old_times`` is :func:`~repro.pipeline.state
    .replay`'s per-row pre-edit primary times.  ``cone`` is a
    fanout-closed pin list in topological order holding every edited
    sink ``v`` (the session's dirty cone); ``None`` sweeps the whole
    graph.  Rows a run cannot reach (or with no arrival at any edited
    source) get ``+inf`` — served even against an exhausted family's
    infinite boundary.
    """
    if not rows or not runs:
        return {row: _INF for row in rows}
    is_setup = state.mode.is_setup
    backend = "array" if substrate == "array" else "scalar"
    groups = _row_groups(graph, state, rows, backend)

    if cone is None:
        _obs.add("pipeline.bounds.full")
    pins = graph.topo_order if cone is None else cone
    _obs.add("pipeline.bounds.pins", len(pins))
    if cone is None and substrate == "array" and core is not None:
        reach = _sweep_numpy(graph, core, groups, runs, is_setup,
                             clock_period)
    else:
        reach = _sweep(graph, pins, groups, runs, is_setup, clock_period)
    return _evaluate(state, rows, reach, runs, old_times, is_setup)


def _sweep(graph: TimingGraph, pins: list[int], groups, runs,
           is_setup: bool, clock_period: float) -> list[dict[int, float]]:
    """Backward min-sweep of every row over ``pins``, in Python.

    ``pins`` is in topological order and fanout-closed (every fanout
    target of a member is a member): the whole ``topo_order`` is the
    scalar reference, a dirty cone the fast path.  Only the D pins in
    ``pins`` are seeded.  Returns per-row ``{pin: R}`` dicts.
    """
    overrides = {(u, v): pess for u, v, pess in runs}
    fanout = graph.fanout
    ff_of_d_pin = graph.ff_of_d_pin
    reach: list[dict[int, float]] = [{} for _ in groups]
    for u in reversed(pins):
        ff = ff_of_d_pin.get(u)
        cap = (_INF if ff is None
               else _capture_seed(graph, ff, is_setup, clock_period))
        edges = [(v, overrides.get((u, v), late if is_setup else early))
                 for v, early, late in fanout[u]]
        for row_reach, group in zip(reach, groups):
            # ``cap`` is already +inf at a pin that is no D pin.
            best = (cap if ff is None or group is None or group[ff] >= 0
                    else _INF)
            for v, delay in edges:
                rv = row_reach[v]
                if rv == _INF:
                    continue
                cand = rv - delay if is_setup else delay + rv
                if cand < best:
                    best = cand
            row_reach[u] = best
    return reach


def _sweep_numpy(graph: TimingGraph, core, groups, runs, is_setup: bool,
                 clock_period: float):
    """The whole-graph sweep, vectorized per level bucket.

    Returns a ``(rows, num_pins)`` array.
    """
    import numpy as np

    structure = core.structure
    pess_col = (core.edge_late if is_setup else core.edge_early).astype(
        np.float64, copy=True)
    for u, v, pess in runs:
        lo, hi = structure.edge_run(u, v)
        pess_col[lo:hi] = pess

    ff_of_d_pin = graph.ff_of_d_pin
    d_pins = np.fromiter(ff_of_d_pin.keys(), np.int64, len(ff_of_d_pin))
    ffs = np.fromiter(ff_of_d_pin.values(), np.int64, len(ff_of_d_pin))
    caps = np.array([_capture_seed(graph, ff, is_setup, clock_period)
                     for ff in ffs.tolist()], dtype=np.float64)
    reach = np.full((len(groups), structure.num_pins), _INF)
    for i, group in enumerate(groups):
        if group is None:
            reach[i, d_pins] = caps
        else:
            seeded = np.asarray(group, dtype=np.int64)[ffs] >= 0
            reach[i, d_pins[seeded]] = caps[seeded]

    for positions, sstarts, ssrc, dst_by_src in (
            structure.backward_geometry()):
        if is_setup:
            cand = reach[:, dst_by_src] - pess_col[positions]
        else:
            cand = pess_col[positions] + reach[:, dst_by_src]
        red = np.minimum.reduceat(cand, sstarts, axis=1)
        reach[:, ssrc] = np.minimum(reach[:, ssrc], red)
    return reach
