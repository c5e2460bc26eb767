"""The SDF frontend: parsing, annotation hooks, corner extraction."""

from __future__ import annotations

import pytest

from repro.exceptions import FormatError
from repro.io.sdf import (SdfTriple, TRIPLE_MEMBERS, build_overrides,
                          extract_corners, parse_sdf, read_sdf)
from repro.io.yosys_json import read_yosys_module
from repro.library.standard import default_library

FIXTURE = "tests/io/fixtures/counter.sdf"
YOSYS_FIXTURE = "tests/io/fixtures/counter.json"

MINIMAL = """\
(DELAYFILE
  (SDFVERSION "3.0")
  (DESIGN "demo")
  (TIMESCALE 1ns)
  (CELL (CELLTYPE "NAND2_X1") (INSTANCE u1)
    (DELAY (ABSOLUTE
      (IOPATH A0 Y (0.10:0.12:0.16) (0.09:0.11:0.15))
    ))
  )
)
"""


class TestParse:
    def test_fixture_parses(self):
        sdf = read_sdf(FIXTURE)
        assert sdf.design == "counter"
        assert len(sdf.cells) == 9
        assert len(sdf.interconnects()) == 9

    def test_triples(self):
        sdf = parse_sdf(MINIMAL)
        arc = sdf.cells[0].iopaths[0]
        assert arc.rise == SdfTriple(0.10, 0.12, 0.16)
        assert arc.fall == SdfTriple(0.09, 0.11, 0.15)
        assert arc.rise.bounds() == (0.10, 0.16)
        assert arc.rise.pick("typ") == 0.12

    def test_single_value_fans_out(self):
        text = MINIMAL.replace("(0.10:0.12:0.16) (0.09:0.11:0.15)",
                               "(0.25)")
        sdf = parse_sdf(text)
        arc = sdf.cells[0].iopaths[0]
        assert arc.rise == SdfTriple(0.25, 0.25, 0.25)
        assert arc.fall == arc.rise  # missing fall defaults to rise

    def test_empty_members_backfill(self):
        text = MINIMAL.replace("(0.10:0.12:0.16)", "(0.10::0.16)")
        sdf = parse_sdf(text)
        assert sdf.cells[0].iopaths[0].rise == SdfTriple(0.10, 0.10, 0.16)

    def test_timescale_scales_values(self):
        text = MINIMAL.replace("1ns", "100ps")
        sdf = parse_sdf(text)
        arc = sdf.cells[0].iopaths[0]
        assert arc.rise.min == pytest.approx(0.010)

    def test_posedge_port_spec(self):
        text = MINIMAL.replace("IOPATH A0 Y", "IOPATH (posedge A0) Y")
        sdf = parse_sdf(text)
        assert sdf.cells[0].iopaths[0].from_port == "A0"

    def test_interconnect_scoping_with_instance(self):
        text = """\
(DELAYFILE
  (CELL (CELLTYPE "sub") (INSTANCE core)
    (DELAY (ABSOLUTE (INTERCONNECT u1/Y u2/A0 (0.01))))
  )
)
"""
        sdf = parse_sdf(text)
        wire = sdf.interconnects()[0]
        assert wire.driver == "core/u1/Y"
        assert wire.sink == "core/u2/A0"

    def test_dot_divider(self):
        text = """\
(DELAYFILE
  (DIVIDER .)
  (CELL (CELLTYPE "t") (INSTANCE)
    (DELAY (ABSOLUTE (INTERCONNECT u1.Y u2.A0 (0.01))))
  )
)
"""
        wire = parse_sdf(text).interconnects()[0]
        assert (wire.driver, wire.sink) == ("u1/Y", "u2/A0")


class TestDiagnostics:
    def test_not_a_delayfile(self):
        with pytest.raises(FormatError, match="DELAYFILE") as info:
            parse_sdf("(WRONGFILE)", path="d.sdf")
        assert str(info.value).startswith("d.sdf:1:")

    def test_truncated_file(self):
        text = MINIMAL.rsplit("(IOPATH", 1)[0] + "(IOPATH A0"
        with pytest.raises(FormatError, match="unexpected end of file"):
            parse_sdf(text, path="d.sdf")

    def test_unsupported_construct_names_location(self):
        text = MINIMAL.replace("(DESIGN \"demo\")",
                               "(TIMINGCHECK x)")
        with pytest.raises(FormatError,
                           match="unsupported SDF construct") as info:
            parse_sdf(text, path="d.sdf")
        assert info.value.line == 3
        assert info.value.col is not None

    def test_only_absolute_delays(self):
        text = MINIMAL.replace("ABSOLUTE", "INCREMENT")
        with pytest.raises(FormatError, match="only ABSOLUTE"):
            parse_sdf(text)

    def test_corrupt_triple(self):
        text = MINIMAL.replace("(0.10:0.12:0.16)", "(a:b)")
        with pytest.raises(FormatError, match="MIN:TYP:MAX"):
            parse_sdf(text)

    def test_bad_timescale(self):
        text = MINIMAL.replace("1ns", "3 parsecs")
        with pytest.raises(FormatError, match="bad TIMESCALE"):
            parse_sdf(text)

    def test_trailing_content(self):
        with pytest.raises(FormatError, match="trailing content"):
            parse_sdf(MINIMAL + "(DELAYFILE)")


class TestBuildOverrides:
    @pytest.fixture()
    def module(self):
        module, _ = read_yosys_module(YOSYS_FIXTURE)
        return module

    def test_gate_arcs_replaced(self, module):
        sdf = read_sdf(FIXTURE)
        cells, nets = build_overrides(sdf, module, default_library())
        g1 = cells["g1"]
        assert g1.rise_delays[0] == (0.120, 0.200)  # min, max envelope
        assert g1.fall_delays[1] == (0.125, 0.205)
        assert nets["ff1/D"] == (0.010, 0.025)
        assert nets["y"] == (0.005, 0.014)

    def test_flipflop_clk_to_q_replaced(self, module):
        sdf = read_sdf(FIXTURE)
        cells, _ = build_overrides(sdf, module, default_library())
        assert cells["ff1"].clk_to_q_rise == (0.160, 0.240)
        assert cells["ff1"].clk_to_q_fall == (0.165, 0.245)

    def test_pure_corner_selection(self, module):
        sdf = read_sdf(FIXTURE)
        cells, nets = build_overrides(sdf, module, default_library(),
                                      early="typ", late="typ")
        assert cells["g1"].rise_delays[0] == (0.150, 0.150)
        assert nets["ff1/D"] == (0.015, 0.015)

    def test_annotate_flipflops_off(self, module):
        sdf = read_sdf(FIXTURE)
        cells, _ = build_overrides(sdf, module, default_library(),
                                   annotate_flipflops=False)
        assert "ff1" not in cells
        assert "g1" in cells

    def test_unknown_instance_rejected(self, module):
        text = MINIMAL.replace("INSTANCE u1", "INSTANCE ghost")
        sdf = parse_sdf(text, path="d.sdf")
        with pytest.raises(FormatError,
                           match="'ghost' is not in the netlist"):
            build_overrides(sdf, module, default_library())

    def test_wrong_ff_arc_rejected(self, module):
        text = """\
(DELAYFILE
  (CELL (CELLTYPE "DFF_X1") (INSTANCE ff1)
    (DELAY (ABSOLUTE (IOPATH D Q (0.1)))))
)
"""
        sdf = parse_sdf(text, path="d.sdf")
        with pytest.raises(FormatError, match="must be CK -> Q"):
            build_overrides(sdf, module, default_library())

    def test_out_of_range_input_rejected(self, module):
        text = """\
(DELAYFILE
  (CELL (CELLTYPE "NAND2_X1") (INSTANCE g1)
    (DELAY (ABSOLUTE (IOPATH A7 Y (0.1)))))
)
"""
        sdf = parse_sdf(text, path="d.sdf")
        with pytest.raises(FormatError, match="out of range"):
            build_overrides(sdf, module, default_library())

    def test_inverted_interconnect_rejected(self, module):
        text = """\
(DELAYFILE
  (CELL (CELLTYPE "t") (INSTANCE)
    (DELAY (ABSOLUTE (INTERCONNECT g1/Y ff1/D (0.5:0.2:0.1)))))
)
"""
        sdf = parse_sdf(text, path="d.sdf")
        with pytest.raises(FormatError, match="exceeds late"):
            build_overrides(sdf, module, default_library())


class TestExtractCorners:
    def test_fixture_corners(self):
        from repro.io.frontend import load_design
        from repro.sta.timing import TimingAnalyzer
        imported = load_design(YOSYS_FIXTURE, sdf=FIXTURE,
                               sdf_corners=True)
        corners = imported.corners
        assert corners.names == TRIPLE_MEMBERS
        base = imported.graph
        realized = corners.realize(
            TimingAnalyzer(base, imported.constraints), "scalar")
        for name, analyzer in realized.items():
            # Annotated data edges and tree nodes moved off the
            # (min, max) envelope in a pure corner.
            graph, tree = analyzer.graph, analyzer.graph.clock_tree
            assert graph.fanout != base.fanout, name
            assert ((tree.delays_early, tree.delays_late)
                    != (base.clock_tree.delays_early,
                        base.clock_tree.delays_late)), name

    def test_corner_members_subset(self):
        from repro.io.frontend import load_design
        imported = load_design(YOSYS_FIXTURE, sdf=FIXTURE,
                               sdf_corners=True,
                               sdf_members=("typ",))
        assert imported.corners.names == ("typ",)

    def test_base_graph_of_another_netlist_rejected(self):
        from tests.helpers import random_small
        module, _ = read_yosys_module(YOSYS_FIXTURE)
        graph, _ = random_small(3)
        with pytest.raises(FormatError, match="not an elaboration"):
            extract_corners(read_sdf(FIXTURE), module, None,
                            default_library(), graph)

    def test_unknown_member_rejected(self):
        from repro.io.frontend import load_design
        with pytest.raises(FormatError, match="unknown SDF corner"):
            load_design(YOSYS_FIXTURE, sdf=FIXTURE, sdf_corners=True,
                        sdf_members=("best",))

    def test_corners_realize_on_the_base_graph(self):
        from repro.cppr.engine import CpprEngine, CpprOptions
        from repro.io.frontend import load_design
        from repro.sta.timing import TimingAnalyzer
        imported = load_design(YOSYS_FIXTURE, sdf=FIXTURE,
                               sdf_corners=True)
        engine = CpprEngine(
            TimingAnalyzer(imported.graph, imported.constraints),
            CpprOptions(corners=imported.corners))
        by_corner = engine.top_paths_by_corner(5, "setup")
        assert set(by_corner) == set(TRIPLE_MEMBERS)
        # Pure corners have no early/late spread, so the max corner is
        # strictly slower than min on the worst path.
        assert by_corner["max"][0].slack < by_corner["min"][0].slack
