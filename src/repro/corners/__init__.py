"""Multi-corner (MCMM) scenario modelling.

Real sign-off repeats timing analysis per *delay corner* — slow/fast
process, voltage and temperature scenarios that change edge and
clock-tree delays but never the netlist topology.  The structure/value
split of :mod:`repro.core.arrays` makes a corner a pure value-column
set by construction: every corner-realized graph shares the base
design's immutable :class:`~repro.core.arrays.CoreStructure` (and
topology caches — ``topo_order``, batched pad geometry, FF seed
columns), paying only for its own delay columns.

A :class:`Corner` names one scenario in one of two forms:

* **name-keyed** — data-edge delay updates plus clock-tree node
  updates, the exact vocabulary of :class:`~repro.io.eco.EcoUpdates`
  (``--corner NAME=FILE``, the server's ECO corners).  Realizing it
  resolves every pin name and patches the delays one by one;
* **dense** (:meth:`Corner.dense`) — new delays keyed by position in
  the base graph's adjacency rows and clock tree, as
  :func:`repro.io.sdf.extract_corners` builds each SDF min/typ/max
  member.  Realizing it binds every edit in one pass and places the
  array core's value columns with one sort per table.

A :class:`CornerSet` is the ordered, uniquely-named collection an
engine analyzes together.  Passing a set via
``CpprOptions(corners=...)`` makes
:class:`~repro.cppr.engine.CpprEngine` run all ``C`` corners through
one fused ``(C * 2(D + 2), n)`` propagation sweep
(:func:`~repro.core.batched.propagate_dual_batched_corners`) and one
task fan-out, with per-corner results bit-for-bit identical to ``C``
independent single-corner engines.  See ``docs/MCMM.md``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from itertools import chain

from repro.circuit.graph import TimingGraph
from repro.exceptions import AnalysisError
from repro.sta.incremental import (DelayUpdate, apply_clock_updates,
                                   apply_delay_updates,
                                   replace_clock_delays)
from repro.sta.timing import TimingAnalyzer

__all__ = ["Corner", "CornerSet", "NO_CORNER"]

#: The corner label stamped on metrics and cache keys when an engine
#: has no corners configured.  Reserved — not a valid corner name.
NO_CORNER = "-"

#: Characters a corner name may not contain: names are embedded in
#: metric label encodings (``engine.queries{corner=...}``), CLI
#: ``NAME=FILE`` specs and profile header lines.
_FORBIDDEN = set("{}=, \t\n")


def _validate_name(name: object) -> str:
    if not isinstance(name, str) or not name:
        raise AnalysisError(
            f"corner name must be a non-empty string, got {name!r}")
    if name == NO_CORNER:
        raise AnalysisError(
            f"corner name {NO_CORNER!r} is reserved for the "
            f"no-corner label")
    bad = sorted(set(name) & _FORBIDDEN)
    if bad:
        raise AnalysisError(
            f"corner name {name!r} may not contain "
            f"{', '.join(map(repr, bad))} (names appear in metric "
            f"labels and NAME=FILE specs)")
    return name


class Corner:
    """One named delay scenario, expressed as a delta from the base.

    ``delays`` are :class:`~repro.sta.incremental.DelayUpdate` entries
    (data-edge delay replacements), ``clock`` maps clock-tree node
    names to new ``(early, late)`` edge delays — together exactly an
    :class:`~repro.io.eco.EcoUpdates`.  An empty delta is valid and
    names the base design itself (the conventional ``typ`` corner).
    A dense corner (:meth:`dense`) keys its edits by position instead;
    its ``delays`` and ``clock`` are empty.  Corners are immutable;
    edits resolve eagerly when the set is realized, so a typo'd pin
    name fails at engine construction, not on the first query.
    """

    __slots__ = ("name", "delays", "clock", "_pins", "_edges",
                 "_nodes")

    def __init__(self, name: str,
                 delays: Iterable[DelayUpdate] = (),
                 clock: Mapping[str, tuple[float, float]] | None = None
                 ) -> None:
        self.name = _validate_name(name)
        self.delays = tuple(delays)
        for update in self.delays:
            if not isinstance(update, DelayUpdate):
                raise AnalysisError(
                    f"corner {name!r}: delays must be DelayUpdate "
                    f"entries, got {update!r}")
        self.clock = dict(clock or {})
        #: The dense form: the base graph's pin table, edge edits and
        #: clock-node edits (``None``/empty for a name-keyed corner).
        self._pins = None
        self._edges: tuple = ()
        self._nodes: tuple = ()

    @classmethod
    def dense(cls, name: str, graph: TimingGraph,
              edges: Iterable[tuple[int, int, int, tuple]],
              nodes: Iterable[tuple[int, float, float]]) -> "Corner":
        """A corner keyed by position in ``graph``'s topology.

        ``edges`` holds ``(u, j, k, (v, early, late))``: the new entry
        ``graph.fanout[u][j]`` of the data edge ``u -> v``, whose fanin
        entry is ``graph.fanin[v][k]``.  ``nodes`` holds ``(node,
        early, late)``: new delays for the clock-tree edge into
        ``node``.  The corner realizes on ``graph`` or on any graph
        with its pin table and adjacency rows (an ECO derivation of
        it); on another design, realizing raises
        :class:`AnalysisError`.
        """
        corner = cls(name)
        corner._pins = graph.pins
        # Flat (u, j, k, entry, ...): no tuple per edit, and realized
        # fanout rows share the entries.
        corner._edges = tuple(chain.from_iterable(edges))
        corner._nodes = tuple(nodes)
        return corner

    @classmethod
    def from_eco(cls, name: str, updates) -> "Corner":
        """A corner from an :class:`~repro.io.eco.EcoUpdates` bundle."""
        return cls(name, updates.delays, updates.clock)

    @classmethod
    def load(cls, name: str, path) -> "Corner":
        """A corner from an ECO-update JSON file (eagerly validated).

        File-format problems surface as the loader's
        :class:`~repro.exceptions.FormatError` with its usual
        ``path: context`` diagnostics.
        """
        from repro.io.eco import load_eco_updates
        return cls.from_eco(name, load_eco_updates(path))

    def __repr__(self) -> str:
        if self._pins is not None:
            return (f"Corner({self.name!r}, dense: "
                    f"edges={len(self._edges) // 4}, "
                    f"clock_nodes={len(self._nodes)})")
        return (f"Corner({self.name!r}, delays={len(self.delays)}, "
                f"clock={len(self.clock)})")

    def _bind(self, graph: TimingGraph) -> TimingGraph:
        """``graph`` with this dense corner's edits, in one pass.

        Adjacency rows are copied on touch and patched by position.  A
        built array core is carried as a
        :meth:`~repro.core.arrays.CoreArrays.placed_copy` over the
        shared structure.
        """
        if graph.pins is not self._pins and graph.pins != self._pins:
            raise AnalysisError(
                "its delays are keyed to another design's pins; "
                "extract the corner from this design")
        fanout = list(graph.fanout)
        fanin = list(graph.fanin)
        edits = iter(self._edges)
        for u, j, k, entry in zip(edits, edits, edits, edits):
            v, early, late = entry
            row, back = fanout[u], fanin[v]
            if row is graph.fanout[u]:
                row = fanout[u] = list(row)
            if back is graph.fanin[v]:
                back = fanin[v] = list(back)
            if (j >= len(row) or row[j][0] != v or k >= len(back)
                    or back[k][0] != u):
                raise AnalysisError(
                    f"no data edge {graph.pin_name(u)!r} -> "
                    f"{graph.pin_name(v)!r} at its position; extract "
                    f"the corner from this design")
            row[j] = entry
            back[k] = (u, early, late)
        derived = TimingGraph._derived(graph, fanout=fanout, fanin=fanin)
        core = getattr(graph, "_core_arrays", None)
        if core is not None:
            derived._core_arrays = core.placed_copy(derived)
        for attr in ("_batched_pads", "_batched_ff_columns"):
            value = getattr(graph, attr, None)
            if value is not None:
                setattr(derived, attr, value)
        if self._nodes:
            derived = replace_clock_delays(
                derived, {node: (early, late)
                          for node, early, late in self._nodes})
        return derived


class CornerSet:
    """An ordered set of uniquely-named corners analyzed together."""

    __slots__ = ("corners", "_by_name")

    def __init__(self, corners: Iterable[Corner]) -> None:
        self.corners = tuple(corners)
        if not self.corners:
            raise AnalysisError("a CornerSet needs at least one corner")
        self._by_name: dict[str, Corner] = {}
        for corner in self.corners:
            if not isinstance(corner, Corner):
                raise AnalysisError(
                    f"CornerSet entries must be Corner instances, "
                    f"got {corner!r}")
            if corner.name in self._by_name:
                raise AnalysisError(
                    f"duplicate corner name {corner.name!r}")
            self._by_name[corner.name] = corner

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(corner.name for corner in self.corners)

    def __len__(self) -> int:
        return len(self.corners)

    def __iter__(self) -> Iterator[Corner]:
        return iter(self.corners)

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> Corner:
        try:
            return self._by_name[name]
        except KeyError:
            raise AnalysisError(
                f"unknown corner {name!r}; valid corners: "
                f"{', '.join(self.names)}") from None

    def __repr__(self) -> str:
        return f"CornerSet({', '.join(self.names)})"

    def realize(self, analyzer: TimingAnalyzer,
                backend: str) -> dict[str, TimingAnalyzer]:
        """Corner-realized analyzers over one shared structure.

        On the array backend the base graph's core is built *first*,
        so every derived graph shares its
        :class:`~repro.core.arrays.CoreStructure` (the precondition of
        the fused sweep) and pays only for its value columns.  Unknown
        pins or clock nodes, and dense corners of another design, raise
        :class:`AnalysisError` here — i.e. at engine construction —
        prefixed with the corner's name.
        """
        graph = analyzer.graph
        if backend == "array":
            from repro.core.arrays import get_core
            get_core(graph)
        realized: dict[str, TimingAnalyzer] = {}
        for corner in self.corners:
            derived = graph
            try:
                if corner._pins is not None:
                    derived = corner._bind(derived)
                if corner.delays:
                    derived = apply_delay_updates(derived,
                                                  list(corner.delays))
                if corner.clock:
                    derived = apply_clock_updates(derived, corner.clock)
            except AnalysisError as exc:
                raise AnalysisError(
                    f"corner {corner.name!r}: {exc}") from None
            realized[corner.name] = TimingAnalyzer(derived,
                                                   analyzer.constraints)
        return realized
