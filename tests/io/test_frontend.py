"""The unified frontend registry: detection, loading, provenance."""

from __future__ import annotations

import warnings

import pytest

from repro.exceptions import FormatError
from repro.io import (ImportedDesign, detect_format, load_design,
                      save_design, save_design_json)
from repro.io.frontend import FormatSpec, formats, register_format
from tests.helpers import demo_design

FIXTURES = "tests/io/fixtures"
YOSYS_FIXTURE = f"{FIXTURES}/counter.json"
SDF_FIXTURE = f"{FIXTURES}/counter.sdf"

GOOD_VERILOG = """\
module top (a, clk, y);
  input a, clk;
  output y;
  wire q1;
  DFF_X1 r1 (.CK(clk), .D(a), .Q(q1));
  BUF_X1 u1 (.A0(q1), .Y(y));
endmodule
"""

GOOD_SDC = """\
create_clock -period 4.0 -name clk [get_ports clk]
"""


class TestDetectFormat:
    def test_builtin_formats_registered(self):
        assert [spec.name for spec in formats()] == [
            "tau", "json", "verilog", "yosys"]

    def test_cppr_extension(self, tmp_path):
        assert detect_format(tmp_path / "d.cppr") == "tau"

    def test_verilog_extension(self, tmp_path):
        assert detect_format(tmp_path / "d.v") == "verilog"

    def test_json_sniffs_native_design(self, tmp_path):
        graph, constraints = demo_design()
        path = tmp_path / "d.json"
        save_design_json(graph, constraints, path)
        assert detect_format(path) == "json"

    def test_json_sniffs_yosys_netlist(self):
        assert detect_format(YOSYS_FIXTURE) == "yosys"

    def test_unknown_extension(self, tmp_path):
        with pytest.raises(FormatError, match="unrecognized design "
                                              "extension"):
            detect_format(tmp_path / "d.sdf")

    def test_ambiguous_json_names_candidates(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('{"neither": 1}')
        with pytest.raises(FormatError, match="json, yosys"):
            detect_format(path)


class TestLoadDesign:
    def test_tau_roundtrip(self, tmp_path):
        graph, constraints = demo_design()
        path = tmp_path / "d.cppr"
        save_design(graph, constraints, str(path))
        imported = load_design(path)
        assert isinstance(imported, ImportedDesign)
        assert imported.format == "tau"
        assert imported.graph.num_pins == graph.num_pins
        assert imported.constraints.clock_period == \
            constraints.clock_period

    def test_imported_design_unpacks_like_legacy_tuple(self, tmp_path):
        graph, constraints = demo_design()
        path = tmp_path / "d.json"
        save_design_json(graph, constraints, path)
        new_graph, new_constraints = load_design(path)
        assert new_graph.num_pins == graph.num_pins
        assert new_constraints.clock_period == constraints.clock_period

    def test_explicit_format_overrides_extension(self, tmp_path):
        graph, constraints = demo_design()
        path = tmp_path / "design.dump"
        save_design(graph, constraints, str(path))
        imported = load_design(path, format="tau")
        assert imported.format == "tau"

    def test_verilog_needs_sdc(self, tmp_path):
        path = tmp_path / "top.v"
        path.write_text(GOOD_VERILOG)
        with pytest.raises(FormatError, match="pass sdc="):
            load_design(path)

    def test_verilog_with_sdc(self, tmp_path):
        path = tmp_path / "top.v"
        path.write_text(GOOD_VERILOG)
        sdc = tmp_path / "top.sdc"
        sdc.write_text(GOOD_SDC)
        imported = load_design(path, sdc=sdc)
        assert imported.format == "verilog"
        assert imported.design is not None  # RiseFallDesign attached
        assert imported.constraints.clock_period == 4.0
        assert imported.corners is None

    def test_unknown_format_name(self, tmp_path):
        with pytest.raises(FormatError, match="unknown design format"):
            load_design(tmp_path / "d.cppr", format="edif")

    def test_unknown_option_is_a_typeerror(self, tmp_path):
        with pytest.raises(TypeError, match="sfd"):
            load_design(tmp_path / "d.cppr", sfd="typo.sdf")

    def test_sdf_rejected_for_graph_native_formats(self, tmp_path):
        graph, constraints = demo_design()
        path = tmp_path / "d.cppr"
        save_design(graph, constraints, str(path))
        with pytest.raises(FormatError, match="netlist frontend"):
            load_design(path, sdf=SDF_FIXTURE)


class TestRegisterFormat:
    def test_custom_format_dispatches(self, tmp_path):
        graph, constraints = demo_design()

        def loader(path, options):
            return ImportedDesign(graph=graph, constraints=constraints,
                                  format="demo", path=path)

        spec = FormatSpec(name="demo", description="test format",
                          extensions=(".demo",), loader=loader)
        register_format(spec)
        try:
            path = tmp_path / "d.demo"
            path.write_text("")
            assert detect_format(path) == "demo"
            assert load_design(path).format == "demo"
        finally:
            from repro.io import frontend
            frontend._REGISTRY.pop("demo", None)

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError, match="invalid format name"):
            register_format(FormatSpec(
                name="bad name", description="", extensions=(".x",),
                loader=lambda path, options: None))


class TestProvenance:
    def test_yosys_meta_and_sdf_path(self):
        imported = load_design(YOSYS_FIXTURE, sdf=SDF_FIXTURE)
        assert imported.format == "yosys"
        assert imported.meta["top"] == "counter"
        assert imported.meta["clock_port"] == "clk"
        assert "Yosys" in imported.meta["creator"]
        assert imported.sdf_path == SDF_FIXTURE

    def test_top_level_exports(self):
        import repro
        assert repro.load_design is load_design
        for name in ("ImportedDesign", "detect_format",
                     "register_format", "SourceLocation"):
            assert name in repro.__all__

    def test_no_deprecation_warning_through_frontend(self, tmp_path):
        graph, constraints = demo_design()
        path = tmp_path / "d.cppr"
        save_design(graph, constraints, str(path))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            load_design(path)
