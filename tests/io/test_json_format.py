"""Tests for the JSON design format."""

from __future__ import annotations

import json

import pytest

from repro import CpprEngine, TimingAnalyzer
from repro.exceptions import FormatError
from repro.io import load_design
from repro.io.json_format import save_design_json
from tests.helpers import assert_slacks_equal, demo_design, random_small


class TestRoundTrip:
    def test_demo_roundtrip(self, tmp_path):
        graph, constraints = demo_design()
        path = tmp_path / "demo.json"
        save_design_json(graph, constraints, path)
        new_graph, new_constraints = load_design(path, format="json")
        want = CpprEngine(TimingAnalyzer(graph, constraints)).top_slacks(
            10, "setup")
        got = CpprEngine(TimingAnalyzer(new_graph,
                                        new_constraints)).top_slacks(
            10, "setup")
        assert_slacks_equal(got, want)

    def test_random_roundtrip(self, tmp_path):
        graph, constraints = random_small(99)
        path = tmp_path / "r.json"
        save_design_json(graph, constraints, path)
        new_graph, _ = load_design(path, format="json")
        assert new_graph.num_edges == graph.num_edges

    def test_file_is_valid_json_with_header(self, tmp_path):
        graph, constraints = demo_design()
        path = tmp_path / "demo.json"
        save_design_json(graph, constraints, path)
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro-cppr-design"
        assert payload["version"] == 1


class TestErrors:
    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(FormatError, match="invalid JSON"):
            load_design(path, format="json")

    def test_wrong_format_marker(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "other"}))
        with pytest.raises(FormatError, match="not a repro"):
            load_design(path, format="json")

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "repro-cppr-design",
                                    "version": 99, "design": {}}))
        with pytest.raises(FormatError, match="version"):
            load_design(path, format="json")

    def test_non_dict_payload(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(FormatError, match="not a repro"):
            load_design(path, format="json")
