"""Diagnostics quality: corrupt inputs raise FormatError with locations.

A truncated or corrupt design file is an operational fault like any
other; what separates a debuggable failure from a mystery is the
``path:line`` prefix on the message.  These tests feed each parser
broken inputs and check both the exception type and the location info.
"""

from __future__ import annotations

import pytest

from repro.exceptions import FormatError, SourceLocation
from repro.io import load_design
from repro.io.sdc import parse_sdc, read_sdc
from repro.io.tau_format import loads_design
from repro.io.verilog import parse_verilog, read_verilog

GOOD_SDC = """\
create_clock -period 5.0 -name clk [get_ports clk]
set_input_delay 0.5 -clock clk [get_ports a]
"""

GOOD_TAU = """\
design demo
clock 5.0 clk
ff f1 clk 0.1 0.2 0.1 0.05 0.2 0.3
input a 0.0 0.1
net a f1/D 0.5 0.9
"""

GOOD_VERILOG = """\
module top (a, y);
  input a;
  output y;
  wire n1;
  BUF u1 (.A(a), .Y(n1));
  BUF u2 (.A(n1), .Y(y));
endmodule
"""


def _raises_with_location(parse, text, path, match, line=None):
    with pytest.raises(FormatError, match=match) as info:
        parse(text, path=path)
    message = str(info.value)
    assert message.startswith(path), message
    if line is not None:
        assert message.startswith(f"{path}:{line}:"), message
    return info.value


class TestSourceLocation:
    def test_full_rendering(self):
        assert str(SourceLocation("a.v", 3, 7)) == "a.v:3:7"

    def test_line_only(self):
        assert str(SourceLocation("a.sdc", 3)) == "a.sdc:3"

    def test_col_needs_a_line(self):
        # A column without a line is meaningless; it is dropped.
        assert str(SourceLocation("a.v", None, 7)) == "a.v"

    def test_path_only_and_empty(self):
        assert str(SourceLocation("a.v")) == "a.v"
        assert str(SourceLocation()) == ""

    def test_error_factory_pins_the_exception(self):
        exc = SourceLocation("a.v", 3, 7).error("boom")
        assert isinstance(exc, FormatError)
        assert (exc.path, exc.line, exc.col) == ("a.v", 3, 7)
        assert str(exc) == "a.v:3:7: boom"


class TestSdcDiagnostics:
    def test_good_input_parses(self):
        constraints = parse_sdc(GOOD_SDC)
        assert constraints.clock_period == 5.0

    def test_truncated_create_clock(self):
        _raises_with_location(parse_sdc, "create_clock -period\n",
                              "chip.sdc", r"expected \[get_ports NAME\]",
                              line=1)

    def test_corrupt_period_value(self):
        _raises_with_location(
            parse_sdc, "create_clock -period abc [get_ports clk]\n",
            "chip.sdc", "-period needs a number", line=1)

    def test_unsupported_command_names_the_line(self):
        text = GOOD_SDC + "set_false_path -from x\n"
        exc = _raises_with_location(parse_sdc, text, "chip.sdc",
                                    "unsupported SDC command", line=3)
        assert exc.line == 3
        assert exc.path == "chip.sdc"

    def test_missing_delay_value(self):
        text = "create_clock -period 5 [get_ports clk]\n" \
               "set_input_delay -clock clk [get_ports a]\n"
        _raises_with_location(parse_sdc, text, "c.sdc",
                              "missing delay value", line=2)

    def test_read_sdc_reports_the_file_path(self, tmp_path):
        target = tmp_path / "broken.sdc"
        target.write_text("create_clock -period nope [get_ports clk]\n")
        with pytest.raises(FormatError) as info:
            read_sdc(str(target))
        assert str(info.value).startswith(f"{target}:1:")


class TestTauDiagnostics:
    def test_good_input_parses(self):
        graph, constraints = loads_design(GOOD_TAU)
        assert constraints.clock_period == 5.0

    def test_truncated_statement(self):
        # Chop fields off the ff line, as a truncated download would.
        text = GOOD_TAU.replace(
            "ff f1 clk 0.1 0.2 0.1 0.05 0.2 0.3", "ff f1 clk 0.1")
        _raises_with_location(loads_design, text, "d.cppr",
                              "'ff' expects", line=3)

    def test_corrupt_number(self):
        text = GOOD_TAU.replace("0.5 0.9", "0.5 garbage")
        _raises_with_location(loads_design, text, "d.cppr",
                              "expected a number, got 'garbage'", line=5)

    def test_unknown_keyword(self):
        _raises_with_location(loads_design, GOOD_TAU + "frob x 1 2\n",
                              "d.cppr", "unknown keyword 'frob'", line=6)

    def test_missing_clock_statement(self):
        text = "design demo\ninput a 0.0 0.1\n"
        with pytest.raises(FormatError, match="missing 'clock'") as info:
            loads_design(text, path="d.cppr")
        assert str(info.value).startswith("d.cppr:")

    def test_load_design_reports_the_file_path(self, tmp_path):
        target = tmp_path / "truncated.cppr"
        target.write_text(GOOD_TAU.rsplit("net", 1)[0] + "net a\n")
        with pytest.raises(FormatError) as info:
            load_design(str(target))
        assert str(info.value).startswith(f"{target}:")


class TestVerilogDiagnostics:
    def test_good_input_parses(self):
        module = parse_verilog(GOOD_VERILOG)
        assert module.name == "top"
        assert len(module.instances) == 2

    def test_truncated_file(self):
        text = GOOD_VERILOG.split("BUF u2")[0]
        _raises_with_location(parse_verilog, text, "top.v",
                              "missing 'endmodule'")

    def test_mid_token_truncation(self):
        text = GOOD_VERILOG.split("(.A(n1)")[0] + "(.A(\n"
        _raises_with_location(parse_verilog, text, "top.v",
                              "unexpected end of file")

    def test_corrupt_token(self):
        text = GOOD_VERILOG.replace("input a;", "input ;")
        _raises_with_location(parse_verilog, text, "top.v",
                              "expected input name", line=2)

    def test_garbage_characters_name_the_line(self):
        text = GOOD_VERILOG.replace("input a;", "input a; @!%")
        _raises_with_location(parse_verilog, text, "top.v",
                              "unexpected characters", line=2)

    def test_undeclared_net_is_structural_not_positional(self):
        text = GOOD_VERILOG.replace("wire n1;", "")
        exc = _raises_with_location(parse_verilog, text, "top.v",
                                    "undeclared net")
        assert exc.line is None  # whole-module check, no single line

    def test_read_verilog_reports_the_file_path(self, tmp_path):
        target = tmp_path / "bad.v"
        target.write_text("module top (a; endmodule\n")
        with pytest.raises(FormatError) as info:
            read_verilog(str(target))
        assert str(info.value).startswith(f"{target}:")

    def test_errors_carry_a_column(self):
        text = GOOD_VERILOG.replace("input a;", "input ;")
        exc = _raises_with_location(parse_verilog, text, "top.v",
                                    "expected input name", line=2)
        assert exc.col == 9  # the ';' where a name should be

    def test_duplicate_port_pins_its_own_line(self):
        # Regression: the duplicate '.A(...)' ends line 5, so the
        # *next* token ('.Y' on line 6) must not be blamed.  The old
        # code reported the position after the closing paren.
        text = GOOD_VERILOG.replace(
            "BUF u2 (.A(n1), .Y(y));",
            "BUF u2 (.A(n1), .A(n1),\n    .Y(y));")
        exc = _raises_with_location(parse_verilog, text, "top.v",
                                    "connected twice", line=6)
        assert exc.line == 6
        assert exc.col is not None

    def test_duplicate_port_at_end_of_line(self):
        # The harder variant: the duplicate is the last token on its
        # line, which is exactly where next-token positions drift one
        # line too far.
        text = GOOD_VERILOG.replace(
            "BUF u2 (.A(n1), .Y(y));",
            "BUF u2 (.Y(y), .A(n1), .A(n1)\n  );")
        exc = _raises_with_location(parse_verilog, text, "top.v",
                                    "connected twice", line=6)
        assert exc.line == 6
