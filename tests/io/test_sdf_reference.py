"""SDF corners against an independent elaboration.

:func:`~repro.io.sdf.extract_corners` annotates each min/typ/max member
onto the base graph by position, without elaborating the netlist again.
Here every realized member is checked against the design it stands for,
built from scratch: :func:`~repro.io.flow.elaborate_design` on that
member's own :func:`~repro.io.sdf.build_overrides` hooks.  Adjacency
rows, clock-tree delays, the array core's value columns and the setup
and hold top-k must all be identical — on the fixture, and on random
SDF files that annotate every arc and every kind of wire sink.  A dense
corner is also checked to refuse a design it was not extracted from.
"""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CpprEngine, CpprOptions, TimingAnalyzer
from repro.exceptions import AnalysisError
from repro.io.flow import elaborate_design
from repro.io.frontend import load_design
from repro.io.sdc import SdcConstraints
from repro.io.sdf import (TRIPLE_MEMBERS, build_overrides, parse_sdf,
                          read_sdf)
from repro.io.yosys_json import read_yosys_module
from repro.library.standard import default_library
from tests.helpers import random_small

try:
    import numpy  # noqa: F401
    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    HAVE_NUMPY = False

YOSYS_FIXTURE = "tests/io/fixtures/counter.json"
SDF_FIXTURE = "tests/io/fixtures/counter.sdf"

BACKENDS = [
    "scalar",
    pytest.param("array", marks=pytest.mark.skipif(
        not HAVE_NUMPY, reason="numpy required")),
]

CORE_COLUMNS = ("edge_src", "edge_dst", "edge_early", "edge_late",
                "fanin_src", "fanin_dst", "fanin_early", "fanin_late")


def _keys(paths):
    return [(p.slack, p.credit, tuple(p.pins), p.family, p.launch_ff,
             p.capture_ff, p.level) for p in paths]


def reference_graph(sdf, module, sdc, library, member):
    """The member's design, elaborated from scratch.

    Flip-flop cells keep the envelope's clock-to-Q arcs, as a corner
    does: corners carry data-edge and clock-tree delays only.
    """
    envelope, _ = build_overrides(sdf, module, library)
    cells, nets = build_overrides(sdf, module, library, early=member,
                                  late=member, annotate_flipflops=False)
    design, _ = elaborate_design(module, sdc, library,
                                 cell_overrides={**envelope, **cells},
                                 net_delays=nets)
    return design.graph


def check_against_reference(sdf, backend: str, k: int = 8) -> None:
    imported = load_design(YOSYS_FIXTURE, sdf=sdf, sdf_corners=True)
    module, _ = read_yosys_module(YOSYS_FIXTURE)
    library = default_library()
    # The single-clock SDC the yosys frontend synthesizes.
    sdc = SdcConstraints(clock_port=imported.meta["clock_port"],
                         clock_name="clk", clock_period=1.0)
    analyzer = TimingAnalyzer(imported.graph, imported.constraints)
    realized = imported.corners.realize(analyzer, backend)
    engine = CpprEngine(analyzer, CpprOptions(backend=backend,
                                              corners=imported.corners))
    for member in TRIPLE_MEMBERS:
        want = reference_graph(sdf, module, sdc, library, member)
        got = realized[member].graph
        assert got.fanout == want.fanout, member
        assert got.fanin == want.fanin, member
        for delays in ("delays_early", "delays_late"):
            assert (getattr(got.clock_tree, delays)
                    == getattr(want.clock_tree, delays)), member
        if backend == "array":
            from repro.core.arrays import get_core
            mine, fresh = get_core(got), get_core(want)
            for column in CORE_COLUMNS:
                assert (getattr(mine, column).tolist()
                        == getattr(fresh, column).tolist()), \
                    (member, column)
        scalar = CpprEngine(TimingAnalyzer(want, imported.constraints),
                            CpprOptions(backend="scalar"))
        for mode in ("setup", "hold"):
            assert _keys(engine.top_paths(k, mode, corner=member)) \
                == _keys(scalar.top_paths(k, mode)), (member, mode)


@pytest.mark.parametrize("backend", BACKENDS)
def test_fixture_corners_match_reference(backend):
    check_against_reference(read_sdf(SDF_FIXTURE), backend)


# ----------------------------------------------------------------------
# Random SDF files over the counter netlist
# ----------------------------------------------------------------------
_DELAY = st.integers(0, 400).map(lambda ps: ps / 1000)
_TRIPLE = st.lists(_DELAY, min_size=3, max_size=3).map(sorted)
#: Rise and fall triples of one record; they differ, so a rise/fall
#: mix-up cannot pass.
_RISE_FALL = st.tuples(_TRIPLE, _TRIPLE).filter(lambda rf: rf[0] != rf[1])


def _triples(rise_fall) -> str:
    return " ".join("(" + ":".join(map(repr, triple)) + ")"
                    for triple in rise_fall)


@st.composite
def counter_sdf(draw):
    """An SDF for the counter netlist with an IOPATH on every cell arc
    and an INTERCONNECT into every sink: gate ``A<i>``, flip-flop ``D``
    and ``CK``, clock-buffer ``A0`` and the primary output."""
    module, _ = read_yosys_module(YOSYS_FIXTURE)
    library = default_library()
    drivers = {port: port for port in module.inputs}
    for inst in module.instances:
        output = "Q" if library.is_flip_flop(inst.cell) else "Y"
        drivers[inst.connections[output]] = f"{inst.name}/{output}"
    cells, wires = [], []
    for inst in module.instances:
        if library.is_flip_flop(inst.cell):
            arcs = ["(posedge CK) Q"]
        else:
            arcs = [f"A{i} Y"
                    for i in range(library.cell(inst.cell).num_inputs)]
        iopaths = " ".join(f"(IOPATH {arc} {_triples(draw(_RISE_FALL))})"
                           for arc in arcs)
        cells.append(f'(CELL (CELLTYPE "{inst.cell}") '
                     f'(INSTANCE {inst.name}) (DELAY (ABSOLUTE '
                     f'{iopaths})))')
        sinks = [(net, f"{inst.name}/{port}")
                 for port, net in inst.connections.items()
                 if port not in ("Y", "Q")]
        for net, sink in sinks:
            wires.append(f"(INTERCONNECT {drivers[net]} {sink} "
                         f"{_triples(draw(_RISE_FALL))})")
    for port in module.outputs:
        wires.append(f"(INTERCONNECT {drivers[port]} {port} "
                     f"{_triples(draw(_RISE_FALL))})")
    return ("(DELAYFILE (TIMESCALE 1ns) " + " ".join(cells)
            + f' (CELL (CELLTYPE "{module.name}") (INSTANCE) '
            f'(DELAY (ABSOLUTE {" ".join(wires)}))))')


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=15, deadline=None)
@given(text=counter_sdf())
def test_random_corners_match_reference(backend, text):
    sdf = parse_sdf(text)
    sinks = {wire.sink for wire in sdf.interconnects()}
    assert {"g1/A1", "ff1/D", "ff1/CK", "cb1/A0", "y"} <= sinks
    check_against_reference(sdf, backend)


# ----------------------------------------------------------------------
# A dense corner is bound to its design
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_corner_of_another_design_rejected(backend):
    corners = load_design(YOSYS_FIXTURE, sdf=SDF_FIXTURE,
                          sdf_corners=True).corners
    graph, constraints = random_small(3)
    with pytest.raises(AnalysisError, match=r"^corner 'min': "):
        CpprEngine(TimingAnalyzer(graph, constraints),
                   CpprOptions(backend=backend, corners=corners))


@pytest.mark.parametrize("backend", BACKENDS)
def test_corner_of_rewired_netlist_rejected(backend, tmp_path):
    # Same pins, different wiring: g3's two inputs swapped.
    with open(YOSYS_FIXTURE) as handle:
        netlist = json.load(handle)
    for module in netlist["modules"].values():
        pins = module["cells"]["g3"]["connections"]
        pins["A"], pins["B"] = pins["B"], pins["A"]
    path = tmp_path / "rewired.json"
    path.write_text(json.dumps(netlist))
    other = load_design(path)
    assert [p.name for p in other.graph.pins] == \
        [p.name for p in load_design(YOSYS_FIXTURE).graph.pins]
    corners = load_design(YOSYS_FIXTURE, sdf=SDF_FIXTURE,
                          sdf_corners=True).corners
    with pytest.raises(AnalysisError, match=r"^corner 'min': "):
        CpprEngine(TimingAnalyzer(other.graph, other.constraints),
                   CpprOptions(backend=backend, corners=corners))


def test_dense_corner_repr_counts_its_edits():
    corner = load_design(YOSYS_FIXTURE, sdf=SDF_FIXTURE,
                         sdf_corners=True).corners["typ"]
    assert corner.delays == () and corner.clock == {}
    assert re.fullmatch(r"Corner\('typ', dense: edges=[1-9]\d*, "
                        r"clock_nodes=[1-9]\d*\)", repr(corner))
