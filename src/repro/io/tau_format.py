"""Line-oriented text format in the spirit of the TAU contest inputs.

Grammar (one statement per line, ``#`` starts a comment)::

    design  <name>
    clock   <period> <root> [<at_early> <at_late>]
    buffer  <name> <parent> <early> <late>
    ff      <name> <parent> <early> <late> <t_setup> <t_hold>
            <c2q_early> <c2q_late>
    input   <name> <at_early> <at_late>
    output  <name> <rat_early|-> <rat_late|->
    gate    <name> <early0> <late0> [<early1> <late1> ...]
    net     <driver> <sink> <early> <late>

Clock-tree statements must declare parents before children (the writer
always does).  Unknown keywords, malformed fields, and structural errors
all raise :class:`~repro.exceptions.FormatError` with the offending line
number.
"""

from __future__ import annotations

import os

from repro.circuit.graph import TimingGraph
from repro.exceptions import CircuitStructureError, FormatError
from repro.io.design_io import (DesignDescription, describe_design,
                                reconstruct_design)
from repro.sta.constraints import TimingConstraints

__all__ = ["save_design", "dumps_design", "loads_design"]


def _fmt(value: float) -> str:
    return repr(float(value))


def dumps_design(graph: TimingGraph,
                 constraints: TimingConstraints) -> str:
    """Serialize a design to the text format."""
    desc = describe_design(graph, constraints)
    lines = [f"# repro CPPR design file", f"design {desc.name}"]
    if desc.clock_root is not None:
        lines.append(
            f"clock {_fmt(desc.clock_period)} {desc.clock_root} "
            f"{_fmt(desc.clock_source_at[0])} "
            f"{_fmt(desc.clock_source_at[1])}")
    else:
        lines.append(f"clock {_fmt(desc.clock_period)} -")
    for name, parent, early, late in desc.buffers:
        lines.append(f"buffer {name} {parent} {_fmt(early)} {_fmt(late)}")
    for (name, parent, early, late, t_setup, t_hold, c2q_early,
         c2q_late) in desc.flipflops:
        lines.append(
            f"ff {name} {parent} {_fmt(early)} {_fmt(late)} "
            f"{_fmt(t_setup)} {_fmt(t_hold)} {_fmt(c2q_early)} "
            f"{_fmt(c2q_late)}")
    for name, at_early, at_late in desc.inputs:
        lines.append(f"input {name} {_fmt(at_early)} {_fmt(at_late)}")
    for name, rat_early, rat_late in desc.outputs:
        early_str = "-" if rat_early is None else _fmt(rat_early)
        late_str = "-" if rat_late is None else _fmt(rat_late)
        lines.append(f"output {name} {early_str} {late_str}")
    for name, arcs in desc.gates:
        arc_str = " ".join(f"{_fmt(e)} {_fmt(l)}" for e, l in arcs)
        lines.append(f"gate {name} {arc_str}")
    for driver, sink, early, late in desc.nets:
        lines.append(f"net {driver} {sink} {_fmt(early)} {_fmt(late)}")
    return "\n".join(lines) + "\n"


def save_design(graph: TimingGraph, constraints: TimingConstraints,
                path: str | os.PathLike) -> None:
    """Write a design to ``path`` in the text format."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_design(graph, constraints))


def _parse_float(token: str, line_no: int, path: str | None) -> float:
    try:
        return float(token)
    except ValueError:
        raise FormatError(f"expected a number, got {token!r}",
                          line=line_no, path=path) from None


def loads_design(text: str, path: str | None = None
                 ) -> tuple[TimingGraph, TimingConstraints]:
    """Parse the text format; inverse of :func:`dumps_design`."""
    desc = DesignDescription()
    saw_clock = False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword, args = tokens[0], tokens[1:]

        def need(count: int, *also_ok: int) -> None:
            if len(args) != count and len(args) not in also_ok:
                raise FormatError(
                    f"'{keyword}' expects {count} fields, got {len(args)}",
                    line=line_no, path=path)

        if keyword == "design":
            need(1)
            desc.name = args[0]
        elif keyword == "clock":
            need(2, 4)
            saw_clock = True
            desc.clock_period = _parse_float(args[0], line_no, path)
            desc.clock_root = None if args[1] == "-" else args[1]
            if len(args) == 4:
                desc.clock_source_at = (
                    _parse_float(args[2], line_no, path),
                    _parse_float(args[3], line_no, path))
        elif keyword == "buffer":
            need(4)
            desc.buffers.append(
                (args[0], args[1], _parse_float(args[2], line_no, path),
                 _parse_float(args[3], line_no, path)))
        elif keyword == "ff":
            need(8)
            values = [_parse_float(a, line_no, path) for a in args[2:]]
            desc.flipflops.append((args[0], args[1], *values))
        elif keyword == "input":
            need(3)
            desc.inputs.append(
                (args[0], _parse_float(args[1], line_no, path),
                 _parse_float(args[2], line_no, path)))
        elif keyword == "output":
            need(3)
            rat_early = (None if args[1] == "-"
                         else _parse_float(args[1], line_no, path))
            rat_late = (None if args[2] == "-"
                        else _parse_float(args[2], line_no, path))
            desc.outputs.append((args[0], rat_early, rat_late))
        elif keyword == "gate":
            if len(args) < 3 or len(args) % 2 == 0:
                raise FormatError(
                    "'gate' expects a name followed by (early, late) "
                    "pairs", line=line_no, path=path)
            arcs = [( _parse_float(args[i], line_no, path),
                      _parse_float(args[i + 1], line_no, path))
                    for i in range(1, len(args), 2)]
            desc.gates.append((args[0], arcs))
        elif keyword == "net":
            need(4)
            desc.nets.append(
                (args[0], args[1], _parse_float(args[2], line_no, path),
                 _parse_float(args[3], line_no, path)))
        else:
            raise FormatError(f"unknown keyword {keyword!r}",
                              line=line_no, path=path)

    if not saw_clock:
        raise FormatError("missing 'clock' statement", path=path)
    try:
        return reconstruct_design(desc)
    except CircuitStructureError as exc:
        raise FormatError(f"invalid design: {exc}", path=path) from exc

