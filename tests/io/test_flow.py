"""Tests for the Verilog + SDC + library front-end flow."""

from __future__ import annotations

import pytest

from repro import CpprEngine, ExhaustiveTimer, TimingAnalyzer, \
    validate_graph
from repro.exceptions import FormatError
from repro.io import load_design
from repro.io.flow import elaborate_design
from repro.io.sdc import parse_sdc
from repro.io.verilog import parse_verilog
from repro.library.standard import default_library
from tests.helpers import assert_slacks_equal

VERILOG = """
module top (a, b, clk, y);
  input a, b, clk;
  output y;
  wire ck1, ck2, w1, w2, w3;
  BUF_X4  cb1 (.A0(clk), .Y(ck1));
  BUF_X4  cb2 (.A0(ck1), .Y(ck2));
  NAND2_X1 u1 (.A0(a), .A1(b), .Y(w1));
  DFF_X1   r1 (.CK(ck2), .D(w1), .Q(w2));
  INV_X1   u2 (.A0(w2), .Y(w3));
  DFF_X1   r2 (.CK(ck1), .D(w3), .Q(y));
endmodule
"""

SDC = """
create_clock -period 4.0 -name clk [get_ports clk]
set_input_delay 0.3 [get_ports a]
set_input_delay 0.1 -min [get_ports a]
set_input_delay 0.2 [get_ports b]
set_output_delay 0.5 [get_ports y]
"""


@pytest.fixture(scope="module")
def design():
    module = parse_verilog(VERILOG)
    sdc = parse_sdc(SDC)
    return elaborate_design(module, sdc, default_library())


class TestFlow:
    def test_design_is_valid(self, design):
        rf_design, constraints = design
        validate_graph(rf_design.graph)
        assert constraints.clock_period == 4.0

    def test_clock_network_recovered(self, design):
        rf_design, _constraints = design
        tree = rf_design.graph.clock_tree
        assert tree.names[0] == "clk"
        assert "cb1" in tree.names and "cb2" in tree.names
        # 2 expanded FFs per logical FF; + pseudo ck nodes.
        assert len(tree.leaves()) == 4

    def test_clock_buffers_not_in_data_graph(self, design):
        rf_design, _constraints = design
        names = {p.name for p in rf_design.graph.pins}
        assert "cb1@r/Y" not in names  # never expanded as a data gate

    def test_clock_arrivals_accumulate_buffer_delays(self, design):
        rf_design, _constraints = design
        graph = rf_design.graph
        tree = graph.clock_tree
        library = default_library()
        buf = library.cell("BUF_X4")
        early, late = buf.rise_delays[0]
        r1 = graph.ff_by_name("r1@r")
        r2 = graph.ff_by_name("r2@r")
        assert tree.at_early(r1.tree_node) == pytest.approx(2 * early)
        assert tree.at_late(r1.tree_node) == pytest.approx(2 * late)
        assert tree.at_early(r2.tree_node) == pytest.approx(early)

    def test_sdc_port_annotations_applied(self, design):
        rf_design, _constraints = design
        graph = rf_design.graph
        arrivals = {pi.name: (pi.at_early, pi.at_late)
                    for pi in graph.primary_inputs}
        assert arrivals["a@r"] == (pytest.approx(0.1), pytest.approx(0.3))
        assert arrivals["b@f"] == (pytest.approx(0.2), pytest.approx(0.2))
        po = {po.name: (po.rat_early, po.rat_late)
              for po in graph.primary_outputs}
        assert po["y@r"][1] == pytest.approx(4.0 - 0.5)
        assert po["y@r"][0] is None

    def test_engine_matches_oracle_on_flow_design(self, design):
        rf_design, constraints = design
        analyzer = TimingAnalyzer(rf_design.graph, constraints)
        for mode in ("setup", "hold"):
            assert_slacks_equal(
                CpprEngine(analyzer).top_slacks(10, mode),
                ExhaustiveTimer(analyzer).top_slacks(10, mode))

    def test_read_design_from_files(self, tmp_path):
        (tmp_path / "t.v").write_text(VERILOG)
        (tmp_path / "t.sdc").write_text(SDC)
        imported = load_design(tmp_path / "t.v", format="verilog",
                               sdc=tmp_path / "t.sdc")
        assert imported.constraints.clock_period == 4.0
        assert imported.graph.num_ffs == 4


class TestFlowErrors:
    def _elaborate(self, verilog, sdc=SDC):
        return elaborate_design(parse_verilog(verilog), parse_sdc(sdc),
                                default_library())

    def test_missing_create_clock(self):
        with pytest.raises(FormatError, match="create_clock"):
            elaborate_design(parse_verilog(VERILOG),
                             parse_sdc("set_input_delay 1 "
                                       "[get_ports a]\n"),
                             default_library())

    def test_clock_port_must_be_input(self):
        with pytest.raises(FormatError, match="not a module input"):
            self._elaborate(VERILOG.replace("input a, b, clk;",
                                            "input a, b;\n  output clk;")
                            .replace("output y;", "input y_unused;\n"
                                     "  output y;"))

    def test_unknown_cell(self):
        bad = VERILOG.replace("NAND2_X1", "MAGIC_CELL")
        with pytest.raises(FormatError, match="unknown cell"):
            self._elaborate(bad)

    def test_multiple_drivers(self):
        bad = VERILOG.replace(".Y(w3)", ".Y(w1)")
        with pytest.raises(FormatError, match="multiple drivers"):
            self._elaborate(bad)

    def test_clock_driving_data_gate_rejected(self):
        # A clock net feeding a NAND input is caught by the clock tracer
        # (multi-input cells cannot sit in the clock network).
        bad = VERILOG.replace(".A1(b)", ".A1(ck1)")
        with pytest.raises(FormatError,
                           match="multi-input cell|mixed clock/data"):
            self._elaborate(bad)

    def test_clock_driving_ff_data_pin_rejected(self):
        bad = VERILOG.replace(".D(w1)", ".D(ck1)")
        with pytest.raises(FormatError, match="mixed clock/data"):
            self._elaborate(bad)

    def test_inverting_clock_cell_rejected(self):
        bad = VERILOG.replace("BUF_X4  cb1", "INV_X1  cb1")
        with pytest.raises(FormatError, match="inverts"):
            self._elaborate(bad)

    def test_ff_clocked_by_data_net_rejected(self):
        bad = VERILOG.replace(".CK(ck2)", ".CK(w1)")
        with pytest.raises(FormatError, match="not part of the clock"):
            self._elaborate(bad)

    def test_missing_gate_input_rejected(self):
        bad = VERILOG.replace(".A1(b), ", "")
        with pytest.raises(FormatError, match="missing input A1"):
            self._elaborate(bad)

    def test_undriven_net_rejected(self):
        bad = VERILOG.replace("NAND2_X1 u1 (.A0(a), .A1(b), .Y(w1));",
                              "")
        with pytest.raises(FormatError, match="no driver"):
            self._elaborate(bad)
