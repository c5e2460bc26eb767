"""SDF delay annotation: IOPATH/INTERCONNECT triples onto a netlist.

Parses the Standard Delay Format subset that post-synthesis flows
exchange — ``DELAYFILE`` header, per-instance ``CELL`` entries with
``DELAY (ABSOLUTE ...)`` sections holding ``IOPATH`` (cell arc) and
``INTERCONNECT`` (wire) delays as ``(min:typ:max)`` triples::

    (DELAYFILE
      (SDFVERSION "3.0") (DESIGN "counter") (TIMESCALE 1ns)
      (CELL (CELLTYPE "NAND2_X1") (INSTANCE u1)
        (DELAY (ABSOLUTE
          (IOPATH A0 Y (0.10:0.12:0.16) (0.09:0.11:0.15)))))
      (CELL (CELLTYPE "counter") (INSTANCE)
        (DELAY (ABSOLUTE
          (INTERCONNECT u0/Y u1/A0 (0.01:0.02:0.03))))))

Annotation, apart from parsing, goes through the
:func:`repro.io.flow.elaborate_design` override hooks: each annotated
instance gets a cell clone carrying its IOPATH delays, and every
INTERCONNECT becomes a wire delay on the sink pin's net.  The base
design takes ``(early, late) = (min, max)`` — the file's full
on-chip-variation envelope.  :func:`extract_corners` turns the
*min/typ/max* axis into an MCMM :class:`~repro.corners.CornerSet` of
dense corners, one per member: the base graph's edges, each mapped
once to the arc or wire that sets its delay, whose member value
differs from the base, by position.  Unsupported constructs raise
:class:`~repro.exceptions.FormatError` with ``path:line:col``
diagnostics rather than being silently ignored.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field, replace

from repro.exceptions import (FormatError, SourceLocation,
                              TimingConstraintError)

__all__ = ["SdfCell", "SdfDelayFile", "SdfInterconnect", "SdfIoPath",
           "SdfTriple", "TRIPLE_MEMBERS", "build_overrides",
           "extract_corners", "parse_sdf", "read_sdf"]

#: The members of an SDF ``(min:typ:max)`` triple, in axis order.
TRIPLE_MEMBERS = ("min", "typ", "max")

#: Header keywords whose (metadata) payload is consumed and ignored.
_HEADER_SKIP = ("SDFVERSION", "DATE", "VENDOR", "PROGRAM", "VERSION",
                "VOLTAGE", "PROCESS", "TEMPERATURE")

_UNIT_SCALE = {"s": 1e9, "ms": 1e6, "us": 1e3, "ns": 1.0, "ps": 1e-3,
               "fs": 1e-6}

_TOKEN_RE = re.compile(r"\(|\)|\"[^\"]*\"|[^\s()\"]+")


@dataclass(frozen=True, slots=True)
class SdfTriple:
    """One ``(min:typ:max)`` delay value, normalized to design units."""

    min: float
    typ: float
    max: float

    def pick(self, member: str) -> float:
        """The named member (``"min"``, ``"typ"``, or ``"max"``)."""
        try:
            return {"min": self.min, "typ": self.typ,
                    "max": self.max}[member]
        except KeyError:
            raise ValueError(
                f"unknown triple member {member!r}; expected one of "
                f"{TRIPLE_MEMBERS}") from None

    def bounds(self, early: str = "min",
               late: str = "max") -> tuple[float, float]:
        """The (early, late) pair for one corner selection."""
        return self.pick(early), self.pick(late)


@dataclass(frozen=True, slots=True)
class SdfIoPath:
    """One cell arc: input port -> output port with rise/fall triples."""

    from_port: str
    to_port: str
    rise: SdfTriple
    fall: SdfTriple
    loc: SourceLocation


@dataclass(frozen=True, slots=True)
class SdfInterconnect:
    """One wire: driver pin -> sink pin with rise/fall triples."""

    driver: str
    sink: str
    rise: SdfTriple
    fall: SdfTriple
    loc: SourceLocation

    def bounds(self, early: str = "min",
               late: str = "max") -> tuple[float, float]:
        """(early, late) across both transitions (worst envelope)."""
        return (min(self.rise.pick(early), self.fall.pick(early)),
                max(self.rise.pick(late), self.fall.pick(late)))


@dataclass(slots=True)
class SdfCell:
    """One ``(CELL ...)`` entry: an instance and its delay records."""

    celltype: str | None
    instance: str | None
    iopaths: list[SdfIoPath] = field(default_factory=list)
    interconnects: list[SdfInterconnect] = field(default_factory=list)


@dataclass(slots=True)
class SdfDelayFile:
    """A parsed SDF file."""

    path: str | None
    design: str | None
    timescale: float  # multiplier applied to every value (already done)
    divider: str
    cells: list[SdfCell] = field(default_factory=list)

    def iopaths_by_instance(self) -> dict[str, list[SdfIoPath]]:
        """Instance name -> its IOPATH records (cells merged)."""
        table: dict[str, list[SdfIoPath]] = {}
        for cell in self.cells:
            if cell.instance and cell.iopaths:
                table.setdefault(cell.instance, []).extend(cell.iopaths)
        return table

    def interconnects(self) -> list[SdfInterconnect]:
        """Every wire record, scope prefixes already applied."""
        return [wire for cell in self.cells
                for wire in cell.interconnects]


class _Tokens:
    """SDF token stream with ``path:line:col`` tracking."""

    def __init__(self, text: str, path: str | None) -> None:
        self.path = path
        self._items: list[tuple[str, int, int]] = []
        for line_no, line in enumerate(text.splitlines(), start=1):
            for match in _TOKEN_RE.finditer(line):
                self._items.append((match.group(), line_no,
                                    match.start() + 1))
        self._pos = 0
        self._last: tuple[int, int] = (1, 1)

    def loc(self) -> SourceLocation:
        """Location of the *next* token (end of file: the last one)."""
        if self._pos < len(self._items):
            _, line, col = self._items[self._pos]
        elif self._items:
            _, line, col = self._items[-1]
        else:
            line, col = 1, 1
        return SourceLocation(self.path, line, col)

    def last_loc(self) -> SourceLocation:
        """Location of the most recently consumed token."""
        return SourceLocation(self.path, *self._last)

    def peek(self) -> str | None:
        if self._pos < len(self._items):
            return self._items[self._pos][0]
        return None

    def next(self, expected: str | None = None) -> str:
        if self._pos >= len(self._items):
            raise self.loc().error("unexpected end of file")
        token, line, col = self._items[self._pos]
        self._pos += 1
        self._last = (line, col)
        if expected is not None and token != expected:
            raise self.last_loc().error(
                f"expected {expected!r}, got {token!r}")
        return token


def _skip_form(tokens: _Tokens) -> None:
    """Consume the rest of an already-opened ``( ...`` form."""
    depth = 1
    while depth:
        token = tokens.next()
        if token == "(":
            depth += 1
        elif token == ")":
            depth -= 1


def _unquote(token: str) -> str:
    if len(token) >= 2 and token.startswith('"') and token.endswith('"'):
        return token[1:-1]
    return token


def _parse_triple(tokens: _Tokens, scale: float) -> SdfTriple:
    """Parse ``(min:typ:max)`` (or ``(value)``); empty members backfill."""
    tokens.next("(")
    loc = tokens.loc()
    token = tokens.next()
    if token in ("(", ")"):
        raise loc.error(f"expected a delay triple, got {token!r}")
    parts = token.split(":")
    if len(parts) not in (1, 3):
        raise loc.error(
            f"expected VALUE or MIN:TYP:MAX, got {token!r}")
    values: list[float | None] = []
    for part in parts:
        if not part:
            values.append(None)
            continue
        try:
            values.append(float(part) * scale)
        except ValueError:
            raise loc.error(
                f"expected a number, got {part!r}") from None
    if len(values) == 1:
        values = values * 3
    known = [v for v in values if v is not None]
    if not known:
        raise loc.error("a delay triple needs at least one value")
    # Empty members inherit the nearest given one (SDF convention).
    filled = [v if v is not None else known[0] for v in values]
    if values[1] is None and values[0] is not None:
        filled[1] = values[0]
    if values[2] is None:
        filled[2] = filled[1]
    if values[0] is None:
        filled[0] = filled[1]
    tokens.next(")")
    return SdfTriple(*filled)


def _parse_port(tokens: _Tokens) -> str:
    """A port spec: ``NAME`` or ``(posedge NAME)`` / ``(negedge NAME)``."""
    token = tokens.next()
    if token != "(":
        return token
    edge = tokens.next()
    if edge not in ("posedge", "negedge"):
        raise tokens.last_loc().error(
            f"expected posedge/negedge, got {edge!r}")
    port = tokens.next()
    tokens.next(")")
    return port


def _parse_timescale(tokens: _Tokens) -> float:
    loc = tokens.loc()
    parts: list[str] = []
    while tokens.peek() != ")":
        parts.append(tokens.next())
    tokens.next(")")
    spec = "".join(parts)
    match = re.fullmatch(r"([0-9.]+)\s*([a-z]+)", spec)
    if not match or match.group(2) not in _UNIT_SCALE:
        raise loc.error(
            f"bad TIMESCALE {spec!r}; expected NUMBER UNIT "
            f"(units: {', '.join(_UNIT_SCALE)})")
    try:
        number = float(match.group(1))
    except ValueError:
        raise loc.error(f"bad TIMESCALE number {match.group(1)!r}") \
            from None
    if number not in (1.0, 10.0, 100.0):
        raise loc.error(
            f"TIMESCALE number must be 1, 10, or 100, got {number}")
    return number * _UNIT_SCALE[match.group(2)]


def _parse_delay_section(tokens: _Tokens, cell: SdfCell,
                         scale: float, divider: str) -> None:
    """Parse ``(DELAY (ABSOLUTE ...))`` into the cell's records."""
    tokens.next("(")
    keyword = tokens.next()
    if keyword != "ABSOLUTE":
        raise tokens.last_loc().error(
            f"unsupported DELAY section {keyword!r}; only ABSOLUTE "
            f"is supported")
    while tokens.peek() == "(":
        tokens.next("(")
        entry = tokens.next()
        loc = tokens.last_loc()
        if entry == "IOPATH":
            from_port = _parse_port(tokens)
            to_port = _parse_port(tokens)
            rise = _parse_triple(tokens, scale)
            fall = rise
            if tokens.peek() == "(":
                fall = _parse_triple(tokens, scale)
            tokens.next(")")
            cell.iopaths.append(SdfIoPath(from_port, to_port, rise,
                                          fall, loc))
        elif entry == "INTERCONNECT":
            driver = _scoped_pin(tokens.next(), cell.instance, divider)
            sink = _scoped_pin(tokens.next(), cell.instance, divider)
            rise = _parse_triple(tokens, scale)
            fall = rise
            if tokens.peek() == "(":
                fall = _parse_triple(tokens, scale)
            tokens.next(")")
            cell.interconnects.append(
                SdfInterconnect(driver, sink, rise, fall, loc))
        else:
            raise loc.error(
                f"unsupported delay entry {entry!r}; expected IOPATH "
                f"or INTERCONNECT")
    tokens.next(")")  # close ABSOLUTE
    tokens.next(")")  # close DELAY


def _scoped_pin(path: str, instance: str | None, divider: str) -> str:
    """Normalize a pin path to the flat ``inst/PORT`` form."""
    if instance:
        path = f"{instance}{divider}{path}"
    return path.replace(divider, "/")


def _parse_cell(tokens: _Tokens, scale: float,
                divider: str) -> SdfCell:
    cell = SdfCell(celltype=None, instance=None)
    while tokens.peek() == "(":
        tokens.next("(")
        keyword = tokens.next()
        if keyword == "CELLTYPE":
            cell.celltype = _unquote(tokens.next())
            tokens.next(")")
        elif keyword == "INSTANCE":
            if tokens.peek() != ")":
                cell.instance = tokens.next().replace(divider, "/")
            tokens.next(")")
        elif keyword == "DELAY":
            _parse_delay_section(tokens, cell, scale, divider)
        else:
            raise tokens.last_loc().error(
                f"unsupported CELL entry {keyword!r}; expected "
                f"CELLTYPE, INSTANCE, or DELAY")
    tokens.next(")")
    return cell


def parse_sdf(text: str, path: str | None = None) -> SdfDelayFile:
    """Parse SDF ``text``; inverse direction of a ``write_sdf`` flow."""
    tokens = _Tokens(text, path)
    tokens.next("(")
    tokens.next("DELAYFILE")
    sdf = SdfDelayFile(path=path, design=None, timescale=1.0,
                       divider="/")
    while tokens.peek() == "(":
        tokens.next("(")
        keyword = tokens.next()
        if keyword == "CELL":
            sdf.cells.append(_parse_cell(tokens, sdf.timescale,
                                         sdf.divider))
        elif keyword == "DESIGN":
            sdf.design = _unquote(tokens.next())
            tokens.next(")")
        elif keyword == "TIMESCALE":
            sdf.timescale = _parse_timescale(tokens)
        elif keyword == "DIVIDER":
            divider = tokens.next()
            if divider not in ("/", "."):
                raise tokens.last_loc().error(
                    f"unsupported DIVIDER {divider!r}; expected / or .")
            sdf.divider = divider
            tokens.next(")")
        elif keyword in _HEADER_SKIP:
            _skip_form(tokens)
        else:
            raise tokens.last_loc().error(
                f"unsupported SDF construct {keyword!r}")
    tokens.next(")")
    if tokens.peek() is not None:
        raise tokens.loc().error(
            f"unexpected trailing content {tokens.peek()!r}")
    return sdf


def read_sdf(path: str | os.PathLike) -> SdfDelayFile:
    """Parse the SDF file at ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_sdf(handle.read(), path=str(path))


# ----------------------------------------------------------------------
# Annotation: SDF records -> elaborate_design() override hooks
# ----------------------------------------------------------------------
_INPUT_PORT_RE = re.compile(r"A(\d+)$")


def _annotate_flipflop(base, iopaths: list[SdfIoPath], early: str,
                       late: str):
    c2q_rise = base.clk_to_q_rise
    c2q_fall = base.clk_to_q_fall
    for arc in iopaths:
        if arc.from_port != "CK" or arc.to_port != "Q":
            raise arc.loc.error(
                f"flip-flop IOPATH must be CK -> Q, got "
                f"{arc.from_port} -> {arc.to_port}")
        c2q_rise = arc.rise.bounds(early, late)
        c2q_fall = arc.fall.bounds(early, late)
    return replace(base, clk_to_q_rise=c2q_rise, clk_to_q_fall=c2q_fall)


def _annotate_gate(base, iopaths: list[SdfIoPath], early: str,
                   late: str):
    rise = list(base.rise_delays)
    fall = list(base.fall_delays)
    for arc in iopaths:
        match = _INPUT_PORT_RE.fullmatch(arc.from_port)
        if not match or arc.to_port != "Y":
            raise arc.loc.error(
                f"gate IOPATH must be A<i> -> Y, got "
                f"{arc.from_port} -> {arc.to_port}")
        index = int(match.group(1))
        if index >= base.num_inputs:
            raise arc.loc.error(
                f"IOPATH input {arc.from_port} out of range for "
                f"{base.name} ({base.num_inputs} inputs)")
        rise[index] = arc.rise.bounds(early, late)
        fall[index] = arc.fall.bounds(early, late)
    return replace(base, rise_delays=tuple(rise),
                   fall_delays=tuple(fall))


def build_overrides(sdf: SdfDelayFile, module, library, *,
                    early: str = "min", late: str = "max",
                    annotate_flipflops: bool = True
                    ) -> tuple[dict, dict]:
    """The :func:`~repro.io.flow.elaborate_design` hook dicts for one
    corner selection.

    Returns ``(cell_overrides, net_delays)``: per-instance cell clones
    carrying the IOPATH delays at the chosen (early, late) triple
    members, and per-sink wire delays from the INTERCONNECT records.
    ``annotate_flipflops=False`` leaves sequential cells at their base
    values — used by :func:`extract_corners`, whose delta vocabulary
    carries gate/net/clock-tree delays only.
    """
    instances = {inst.name: inst for inst in module.instances}
    cell_overrides: dict = {}
    for name, iopaths in sdf.iopaths_by_instance().items():
        instance = instances.get(name)
        if instance is None:
            raise iopaths[0].loc.error(
                f"SDF instance {name!r} is not in the netlist")
        if instance.cell not in library:
            raise iopaths[0].loc.error(
                f"SDF instance {name!r} uses unknown cell "
                f"{instance.cell!r}")
        try:
            if library.is_flip_flop(instance.cell):
                if not annotate_flipflops:
                    continue
                cell_overrides[name] = _annotate_flipflop(
                    library.flip_flop(instance.cell), iopaths, early,
                    late)
            else:
                cell_overrides[name] = _annotate_gate(
                    library.cell(instance.cell), iopaths, early, late)
        except TimingConstraintError as exc:
            raise iopaths[0].loc.error(
                f"inconsistent SDF delays for {name!r}: {exc}") from exc

    net_delays: dict = {}
    for wire in sdf.interconnects():
        wire_early, wire_late = wire.bounds(early, late)
        if wire_early > wire_late:
            raise wire.loc.error(
                f"INTERCONNECT {wire.driver} -> {wire.sink}: early "
                f"delay {wire_early} exceeds late delay {wire_late}")
        net_delays[wire.sink] = (wire_early, wire_late)
    return cell_overrides, net_delays


# ----------------------------------------------------------------------
# Corners: the min/typ/max axis as an MCMM CornerSet
# ----------------------------------------------------------------------
def _delay_sources(graph, instances, library):
    """Map each data edge and clock-tree edge of ``graph`` to what sets
    its delay in :func:`~repro.io.flow.elaborate_design`.

    Returns ``(edges, nodes)``: ``(u, j, k, v, delay, source)`` for each
    ``graph.fanout[u][j] == (v, *delay)`` (its fanin entry is
    ``graph.fanin[v][k]``) and ``(node, delay, source)`` per tree node.
    A source is a gate arc ``(instance, rise, input)``, a wire's sink
    (``"u1/A0"``, ``"ff/D"``, ``"ff/CK"``, an output port), a clock
    buffer instance, or ``None`` for the zero-delay flip-flop clock pins.
    """
    from repro.circuit.pins import PinKind
    from repro.transitions.netlist import RISE, unmangle

    pins = graph.pins
    tree = graph.clock_tree
    slot_inputs: dict = {}

    def arc(gate_input):
        name, transition = unmangle(gate_input.cell)
        instance = instances[name]
        if gate_input.cell not in slot_inputs:
            cell = library.cell(instance.cell)
            arcs = (cell.arcs_to_output_rise() if transition == RISE
                    else cell.arcs_to_output_fall())
            slot_inputs[gate_input.cell] = [index for index, _t, _d in arcs]
        slot = int(gate_input.name.rpartition("/A")[2])
        return instance, transition == RISE, slot_inputs[gate_input.cell][slot]

    def edge_source(u, v):
        sink = pins[v]
        if sink.kind is PinKind.GATE_OUTPUT:
            return arc(pins[u])
        if sink.kind is PinKind.GATE_INPUT:
            instance, _rise, index = arc(sink)
            return f"{instance.name}/A{index}"
        if sink.kind is PinKind.FF_D:
            return f"{unmangle(sink.cell)[0]}/D"
        return unmangle(sink.name)[0]  # a primary output

    def node_source(node):
        if tree.ff_of_node[node] >= 0:
            return None
        name, transition = unmangle(tree.names[node])
        return f"{name}/CK" if transition == "ck" else instances[name]

    try:
        edges = []
        into = [0] * len(pins)  # per sink: the fanin slot of its next edge
        for u, row in enumerate(graph.fanout):
            for j, (v, early, late) in enumerate(row):
                edges.append((u, j, into[v], v, (early, late),
                              edge_source(u, v)))
                into[v] += 1
        nodes = [(node, (tree.delays_early[node], tree.delays_late[node]),
                  node_source(node)) for node in range(1, len(tree))]
    except (KeyError, ValueError) as exc:
        raise FormatError(f"SDF corners: the base graph is not an "
                          f"elaboration of this netlist ({exc})") from None
    return edges, nodes


def _member_delay(source, library, cell_overrides, net_delays):
    """The delay ``source`` takes under one corner's override hooks."""
    if source is None:
        return (0.0, 0.0)
    if source.__class__ is str:
        return net_delays.get(source, (0.0, 0.0))
    if source.__class__ is tuple:
        instance, rise, index = source
        cell = cell_overrides.get(instance.name) \
            or library.cell(instance.cell)
        return (cell.rise_delays if rise else cell.fall_delays)[index]
    from repro.io.flow import clock_buffer_delay
    return clock_buffer_delay(source, library, cell_overrides, net_delays)


def extract_corners(sdf: SdfDelayFile, module, sdc, library,
                    base_graph,
                    members: tuple[str, ...] = TRIPLE_MEMBERS):
    """The SDF min/typ/max axis as a :class:`~repro.corners.CornerSet`.

    Each member becomes one *pure* corner (``early == late`` at that
    triple member): a dense :class:`~repro.corners.Corner` of the edges
    whose member delay differs from ``base_graph``, the ``(min, max)``
    envelope built by the importer.  Flip-flop intrinsic arcs stay at
    the base values.  ``sdc`` is unused.
    """
    from repro.corners import Corner, CornerSet

    instances = {inst.name: inst for inst in module.instances}
    edges, nodes = _delay_sources(base_graph, instances, library)
    corners = []
    for member in members:
        if member not in TRIPLE_MEMBERS:
            raise FormatError(
                f"unknown SDF corner {member!r}; expected one of "
                f"{TRIPLE_MEMBERS}")
        hooks = build_overrides(sdf, module, library, early=member,
                                late=member, annotate_flipflops=False)
        edge_edits = [
            (u, j, k, (v, *delay)) for u, j, k, v, base, source in edges
            if (delay := _member_delay(source, library, *hooks)) != base]
        node_edits = [
            (node, *delay) for node, base, source in nodes
            if (delay := _member_delay(source, library, *hooks)) != base]
        corners.append(Corner.dense(member, base_graph, edge_edits,
                                    node_edits))
    return CornerSet(corners)
