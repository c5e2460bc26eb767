"""Tests for the TAU-style text format."""

from __future__ import annotations

import pytest

from repro import CpprEngine, TimingAnalyzer
from repro.exceptions import FormatError
from repro.io import load_design
from repro.io.tau_format import dumps_design, loads_design, save_design
from tests.helpers import assert_slacks_equal, demo_design, random_small


class TestRoundTrip:
    def test_demo_roundtrip_through_string(self):
        graph, constraints = demo_design()
        text = dumps_design(graph, constraints)
        new_graph, new_constraints = loads_design(text)
        assert new_graph.name == graph.name
        assert new_constraints.clock_period == constraints.clock_period
        want = CpprEngine(TimingAnalyzer(graph, constraints)).top_slacks(
            15, "hold")
        got = CpprEngine(TimingAnalyzer(new_graph,
                                        new_constraints)).top_slacks(
            15, "hold")
        assert_slacks_equal(got, want)

    def test_file_roundtrip(self, tmp_path):
        graph, constraints = demo_design()
        path = tmp_path / "demo.cppr"
        save_design(graph, constraints, path)
        new_graph, new_constraints = load_design(path)
        assert new_graph.num_ffs == graph.num_ffs
        assert new_graph.num_edges == graph.num_edges

    def test_random_designs_roundtrip(self):
        for seed in range(5):
            graph, constraints = random_small(seed)
            new_graph, _ = loads_design(dumps_design(graph, constraints))
            assert new_graph.num_edges == graph.num_edges
            assert new_graph.num_ffs == graph.num_ffs

    def test_comments_and_blank_lines_ignored(self):
        graph, constraints = demo_design()
        text = dumps_design(graph, constraints)
        noisy = "\n# leading comment\n\n" + text.replace(
            "design demo", "design demo  # trailing comment")
        new_graph, _ = loads_design(noisy)
        assert new_graph.name == "demo"


class TestErrors:
    def test_unknown_keyword(self):
        with pytest.raises(FormatError, match="unknown keyword"):
            loads_design("clock 5.0 -\nwire a b 0 0\n")

    def test_wrong_field_count(self):
        with pytest.raises(FormatError, match="expects"):
            loads_design("clock 5.0\n")

    def test_bad_number(self):
        with pytest.raises(FormatError, match="expected a number"):
            loads_design("clock abc -\n")

    def test_missing_clock_statement(self):
        with pytest.raises(FormatError, match="missing 'clock'"):
            loads_design("design foo\n")

    def test_error_carries_line_number(self):
        with pytest.raises(FormatError) as excinfo:
            loads_design("design foo\nclock 1.0 -\nbogus x\n")
        assert excinfo.value.line == 3

    def test_structural_error_wrapped(self):
        text = ("design bad\nclock 5.0 clk\n"
                "ff f1 clk 0.1 0.2 0.0 0.0 0.0 0.0\n"
                "gate g1 1.0 2.0\n"
                "net f1/Q g1/A0 0.0 0.0\n"
                "net g1/Y g1/A0 0.0 0.0\n")
        with pytest.raises(FormatError, match="invalid design"):
            loads_design(text)

    def test_gate_odd_arc_fields(self):
        with pytest.raises(FormatError, match="pairs"):
            loads_design("clock 1.0 -\ngate g1 1.0\n")

    def test_output_dash_means_unconstrained(self):
        text = ("design d\nclock 5.0 -\ninput a 0.0 0.0\n"
                "output y - 3.0\nnet a y 0.0 1.0\n")
        graph, _ = loads_design(text)
        po = graph.primary_outputs[0]
        assert po.rat_early is None
        assert po.rat_late == 3.0
