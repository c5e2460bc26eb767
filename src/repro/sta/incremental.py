"""Incremental delay updates (ECO-style what-if analysis).

The TAU 2015 contest framing the paper cites is *incremental* timing:
after an engineering change modifies a handful of net or arc delays, the
timer re-answers queries without a full rebuild.  Two layers implement
that here:

* this module's **functional graph derivation**:
  :func:`apply_delay_updates` / :func:`apply_clock_updates` produce a new
  :class:`~repro.circuit.graph.TimingGraph` sharing every
  topology-derived artifact with the original — pin table, records, name
  maps, ``topo_order``, and (for delay edits) the
  :class:`~repro.core.arrays.CoreStructure` half of the array core, so
  the derived graph pays a value-column copy instead of a CSR rebuild;
* the **stateful session**, :class:`repro.pipeline.session.CpprSession`
  (``engine.session()``), which additionally carries propagation state
  and family caches across edits and re-relaxes only dirty level
  segments.

.. deprecated::
    Calling these functions directly and rebuilding an analyzer/engine
    around the result is the *slow* documented path — it re-propagates
    and re-searches everything.  For repeated what-if queries use
    :meth:`repro.cppr.engine.CpprEngine.session` and its
    ``session.update(...)`` / ``session.top_paths(...)`` API instead;
    see ``docs/INCREMENTAL.md``.  These functions stay supported as the
    building blocks the session itself verifies against.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit.clocktree import ClockTree
from repro.circuit.graph import TimingGraph
from repro.exceptions import AnalysisError

__all__ = ["DelayUpdate", "apply_clock_updates", "apply_delay_updates",
           "replace_clock_delays", "resolve_delay_updates"]


@dataclass(frozen=True, slots=True)
class DelayUpdate:
    """New (early, late) delay for the data edge ``driver -> sink``.

    Pins are given by name (``"u3/Y"``) or integer id.
    """

    driver: str | int
    sink: str | int
    early: float
    late: float

    def __post_init__(self) -> None:
        if self.early > self.late:
            raise AnalysisError(
                f"delay update {self.driver!r} -> {self.sink!r}: early "
                f"{self.early} exceeds late {self.late}")


def _pin_id(graph: TimingGraph, pin: str | int) -> int:
    if isinstance(pin, int):
        if not 0 <= pin < graph.num_pins:
            raise AnalysisError(f"pin id {pin} out of range")
        return pin
    try:
        return graph.pin_index[pin]
    except KeyError:
        raise AnalysisError(f"unknown pin {pin!r}") from None


def resolve_delay_updates(graph: TimingGraph, updates: list[DelayUpdate]
                          ) -> list[tuple[int, int, float, float,
                                          float, float]]:
    """Resolve updates to ``(u, v, old_early, old_late, new_early,
    new_late)`` tuples against ``graph``'s *current* delays.

    The old pair identifies which entry of a parallel-edge run is being
    replaced (the first ``u -> v`` entry of the adjacency row, matching
    what :func:`apply_delay_updates` patches).  Raises
    :class:`AnalysisError` for a non-existent edge.  Does not mutate
    anything — callers apply the result to adjacency rows and the array
    core however suits them.
    """
    resolved = []
    for update in updates:
        u = _pin_id(graph, update.driver)
        v = _pin_id(graph, update.sink)
        for target, early, late in graph.fanout[u]:
            if target == v:
                resolved.append((u, v, early, late,
                                 update.early, update.late))
                break
        else:
            raise AnalysisError(
                f"no data edge {graph.pin_name(u)!r} -> "
                f"{graph.pin_name(v)!r} to update")
    return resolved


def _patch_rows(graph: TimingGraph,
                resolved: list[tuple[int, int, float, float, float, float]]
                ) -> tuple[list, list]:
    """Copy-on-touch ``(fanout, fanin)`` row lists with edits applied.

    Both tables are patched symmetrically: ``fanin`` is built by
    scanning drivers in ascending order, so the first ``u -> v`` entry
    of ``fanout[u]`` is exactly the first source-``u`` entry of
    ``fanin[v]`` — replacing both keeps the invariant a from-scratch
    ``TimingGraph.__init__`` would establish, without rebuilding the
    whole fanin table.
    """
    fanout = list(graph.fanout)
    fanin = list(graph.fanin)
    touched_out: set[int] = set()
    touched_in: set[int] = set()
    for u, v, old_e, old_l, new_e, new_l in resolved:
        if u not in touched_out:
            fanout[u] = list(fanout[u])
            touched_out.add(u)
        row = fanout[u]
        for index, (target, _early, _late) in enumerate(row):
            if target == v:
                row[index] = (v, new_e, new_l)
                break
        if v not in touched_in:
            fanin[v] = list(fanin[v])
            touched_in.add(v)
        row = fanin[v]
        for index, (source, _early, _late) in enumerate(row):
            if source == u:
                row[index] = (u, new_e, new_l)
                break
    return fanout, fanin


def apply_delay_updates(graph: TimingGraph,
                        updates: list[DelayUpdate]) -> TimingGraph:
    """A new graph with the given data-edge delays replaced.

    The derived graph shares everything topology-keyed with the original
    (which is never mutated): untouched adjacency rows, the pin table,
    ``topo_order``, and — when the original has a built array core — the
    immutable :class:`~repro.core.arrays.CoreStructure`, so only the
    delay value columns are copied and patched.  Raises
    :class:`AnalysisError` when an update references a non-existent
    edge.
    """
    resolved = resolve_delay_updates(graph, updates)
    fanout, fanin = _patch_rows(graph, resolved)
    derived = TimingGraph._derived(graph, fanout=fanout, fanin=fanin)
    core = getattr(graph, "_core_arrays", None)
    if core is not None:
        derived._core_arrays = core.updated_copy(derived, resolved)
    for attr in ("_batched_pads", "_batched_ff_columns"):
        value = getattr(graph, attr, None)
        if value is not None:
            setattr(derived, attr, value)
    return derived


def apply_clock_updates(graph: TimingGraph,
                        updates: dict[str, tuple[float, float]]
                        ) -> TimingGraph:
    """A new graph whose clock tree has the given edge delays replaced.

    ``updates`` maps a tree node *name* to the new (early, late) delay of
    the edge from its parent.  Arrival times and credits are recomputed
    by the new :class:`ClockTree` (which also gets fresh lifting and
    grouping caches); the data graph — adjacency rows and the whole
    array core, which holds no clock information — is shared untouched.
    """
    name_to_node = {name: node for node, name
                    in enumerate(graph.clock_tree.names)}
    by_node = {}
    for name, delays in updates.items():
        node = name_to_node.get(name)
        if node is None:
            raise AnalysisError(f"unknown clock node {name!r}")
        by_node[node] = delays
    return replace_clock_delays(graph, by_node)


def replace_clock_delays(graph: TimingGraph,
                         by_node: dict[int, tuple[float, float]]
                         ) -> TimingGraph:
    """:func:`apply_clock_updates` with tree nodes given by index."""
    tree = graph.clock_tree
    delays_early = list(tree.delays_early)
    delays_late = list(tree.delays_late)
    for node, (early, late) in by_node.items():
        if node == 0:
            raise AnalysisError(
                "the clock source has no incoming edge; update "
                "source_at via the netlist instead")
        delays_early[node] = early
        delays_late[node] = late
    new_tree = ClockTree(tree.names, tree.parents, delays_early,
                         delays_late, tree.pin_ids, tree.ff_of_node,
                         tree.source_at)
    derived = TimingGraph._derived(graph, clock_tree=new_tree)
    for attr in ("_core_arrays", "_batched_pads", "_batched_ff_columns"):
        value = getattr(graph, attr, None)
        if value is not None:
            setattr(derived, attr, value)
    return derived
