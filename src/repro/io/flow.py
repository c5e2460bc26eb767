"""The netlist back end: parsed Verilog + SDC + library -> analyzable design.

Files enter through ``repro.load_design(path, format="verilog",
sdc=...)``, which parses them and calls :func:`elaborate_design`:

1. take the parsed structural netlist and constraints;
2. recover the clock network: starting from the SDC clock port, follow
   non-inverting single-input cells (BUF/INV-class; inverting clock
   cells are rejected) whose fan-out stays inside the clock network;
   these become clock-tree buffers carrying their library delays;
3. everything else becomes rise/fall-expanded data logic
   (:class:`repro.transitions.RiseFallNetlist`), ports get their SDC
   arrivals/requirements, and the SDC period becomes the
   :class:`~repro.sta.constraints.TimingConstraints`.

Verilog wires are ideal (zero delay); all timing comes from library arcs
and SDC annotations, as in a pre-layout flow.
"""

from __future__ import annotations

from repro.exceptions import FormatError
from repro.io.sdc import SdcConstraints
from repro.io.verilog import VerilogModule
from repro.library.cells import StandardCellLibrary
from repro.sta.constraints import TimingConstraints
from repro.transitions.netlist import RiseFallDesign, RiseFallNetlist

__all__ = ["clock_buffer_delay", "elaborate_design"]

_FF_REQUIRED_PORTS = ("CK", "D")


def _net_drivers(module: VerilogModule,
                 library: StandardCellLibrary) -> dict[str, tuple]:
    """net -> ("port", name) | ("cell", instance, port)."""
    drivers: dict[str, tuple] = {}

    def claim(net: str, driver: tuple) -> None:
        if net in drivers:
            raise FormatError(
                f"net {net!r} has multiple drivers: {drivers[net]} and "
                f"{driver}")
        drivers[net] = driver

    for port in module.inputs:
        claim(port, ("port", port))
    for instance in module.instances:
        if instance.cell not in library:
            raise FormatError(
                f"instance {instance.name!r} uses unknown cell "
                f"{instance.cell!r}")
        output_port = "Q" if library.is_flip_flop(instance.cell) else "Y"
        net = instance.connections.get(output_port)
        if net is not None:
            claim(net, ("cell", instance.name, output_port))
    return drivers


def _trace_clock_network(module: VerilogModule,
                         library: StandardCellLibrary,
                         clock_port: str) -> tuple[set[str], list]:
    """Clock nets and the clock-cell instances in root-first order."""
    if clock_port not in module.inputs:
        raise FormatError(
            f"SDC clock port {clock_port!r} is not a module input")

    # net -> instances consuming it on which ports
    consumers: dict[str, list[tuple]] = {}
    for instance in module.instances:
        output_port = "Q" if library.is_flip_flop(instance.cell) else "Y"
        for port, net in instance.connections.items():
            if port != output_port:
                consumers.setdefault(net, []).append((instance, port))

    clock_nets = {clock_port}
    clock_cells = []
    frontier = [clock_port]
    while frontier:
        net = frontier.pop(0)
        for instance, port in consumers.get(net, []):
            if library.is_flip_flop(instance.cell):
                if port != "CK":
                    raise FormatError(
                        f"clock net {net!r} drives data pin "
                        f"{instance.name}/{port}; mixed clock/data "
                        f"networks are not supported")
                continue
            cell = library.cell(instance.cell)
            if cell.num_inputs != 1:
                raise FormatError(
                    f"clock net {net!r} drives multi-input cell "
                    f"{instance.name!r} ({cell.name}); only buffer "
                    f"chains are supported in the clock network")
            from repro.library.cells import Unateness
            if cell.unateness is not Unateness.POSITIVE:
                raise FormatError(
                    f"clock cell {instance.name!r} ({cell.name}) "
                    f"inverts; inverting clock networks are not "
                    f"supported")
            clock_cells.append(instance)
            out_net = instance.connections.get("Y")
            if out_net is None:
                raise FormatError(
                    f"clock buffer {instance.name!r} has no output "
                    f"connection")
            if out_net not in clock_nets:
                clock_nets.add(out_net)
                frontier.append(out_net)
    return clock_nets, clock_cells


def clock_buffer_delay(instance, library: StandardCellLibrary,
                       cell_overrides: dict, net_delays: dict
                       ) -> tuple[float, float]:
    """A clock buffer's tree-edge delay: its (overridden) input-0 rise
    arc plus the wire delay into its ``A0``."""
    cell = cell_overrides.get(instance.name) \
        or library.cell(instance.cell)
    early, late = cell.rise_delays[0]
    wire_early, wire_late = net_delays.get(f"{instance.name}/A0",
                                           (0.0, 0.0))
    return early + wire_early, late + wire_late


def elaborate_design(module: VerilogModule, sdc: SdcConstraints,
                     library: StandardCellLibrary,
                     *,
                     cell_overrides: dict | None = None,
                     net_delays: dict | None = None
                     ) -> tuple[RiseFallDesign, TimingConstraints]:
    """Build an analyzable design from parsed inputs.

    The two hooks let delay annotators reshape the design without
    duplicating the elaboration pipeline:

    ``cell_overrides``
        instance name -> cell template (a
        :class:`~repro.library.cells.LibraryCell` or
        :class:`~repro.library.cells.FlipFlopCell` clone carrying
        per-instance delays).  Used by the delay calculator
        (:mod:`repro.delaycalc.timed_flow`) and the SDF annotator
        (:mod:`repro.io.sdf`).  Clock buffers take their tree-edge
        delay from the override's input-0 rise arc.
    ``net_delays``
        sink pin reference (``"inst/A0"``, ``"inst/D"``, ``"inst/CK"``,
        or an output port name) -> (early, late) wire delay for the net
        into that pin.  Unannotated nets stay ideal.  A wire delay into
        a clock buffer's ``A0`` is folded into that buffer's tree edge.
    """
    if sdc.clock_port is None or sdc.clock_period is None:
        raise FormatError("SDC must contain create_clock")
    cell_overrides = cell_overrides or {}
    net_delays = net_delays or {}
    drivers = _net_drivers(module, library)
    clock_nets, clock_cells = _trace_clock_network(module, library,
                                                   sdc.clock_port)
    clock_cell_names = {instance.name for instance in clock_cells}

    netlist = RiseFallNetlist(module.name, library)
    netlist.set_clock_root(sdc.clock_port)

    # Clock buffers, root-first (the trace order guarantees parents come
    # first).  Tree node of a clock net = the cell driving it.
    node_of_net = {sdc.clock_port: sdc.clock_port}
    for instance in clock_cells:
        parent = node_of_net[instance.connections["A0"]]
        netlist.add_clock_buffer(
            instance.name, parent,
            *clock_buffer_delay(instance, library, cell_overrides,
                                net_delays))
        node_of_net[instance.connections["Y"]] = instance.name

    # Ports.
    for port in module.inputs:
        if port == sdc.clock_port:
            continue
        if port in clock_nets:
            raise FormatError(
                f"input {port!r} is part of the clock network but is "
                f"not the SDC clock port")
        early, late = sdc.input_arrival(port)
        netlist.add_primary_input(port, rise_at=(early, late),
                                  fall_at=(early, late))
    for port in module.outputs:
        rat_early, rat_late = sdc.output_required(port)
        netlist.add_primary_output(port, rat_early, rat_late)

    # Instances.
    for instance in module.instances:
        if instance.name in clock_cell_names:
            continue
        if library.is_flip_flop(instance.cell):
            for port in _FF_REQUIRED_PORTS:
                if port not in instance.connections:
                    raise FormatError(
                        f"flip-flop {instance.name!r} is missing its "
                        f"{port} connection")
            ck_net = instance.connections["CK"]
            if ck_net not in clock_nets:
                raise FormatError(
                    f"flip-flop {instance.name!r} clock pin is driven "
                    f"by {ck_net!r}, which is not part of the clock "
                    f"network")
            cell = cell_overrides.get(instance.name) \
                or library.flip_flop(instance.cell)
            netlist.add_flipflop_cell(instance.name, cell)
            netlist.connect_clock(instance.name, node_of_net[ck_net],
                                  *net_delays.get(f"{instance.name}/CK",
                                                  (0.0, 0.0)))
        else:
            cell = cell_overrides.get(instance.name) \
                or library.cell(instance.cell)
            netlist.add_gate_cell(instance.name, cell)
            for i in range(cell.num_inputs):
                if f"A{i}" not in instance.connections:
                    raise FormatError(
                        f"gate {instance.name!r} ({cell.name}) is "
                        f"missing input A{i}")

    def driver_ref(net: str) -> str:
        try:
            driver = drivers[net]
        except KeyError:
            raise FormatError(f"net {net!r} has no driver") from None
        if driver[0] == "port":
            return driver[1]
        _kind, instance_name, port = driver
        return f"{instance_name}/{port}"

    # Data connections.
    for instance in module.instances:
        if instance.name in clock_cell_names:
            continue
        for port, net in instance.connections.items():
            if port in ("Y", "Q", "CK"):
                continue
            sink = f"{instance.name}/{port}"
            netlist.connect(driver_ref(net), sink,
                            *net_delays.get(sink, (0.0, 0.0)))
    for port in module.outputs:
        netlist.connect(driver_ref(port), port,
                        *net_delays.get(port, (0.0, 0.0)))

    return netlist.elaborate(), TimingConstraints(sdc.clock_period)
