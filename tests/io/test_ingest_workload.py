"""The frontend acceptance workload: one Yosys+SDF import runs the
full CPPR pipeline bit-for-bit identically across the backend x
executor matrix, and SDF min/typ/max triples realize as MCMM corners
whose answers match independent single-corner engines."""

from __future__ import annotations

import pytest

from repro import CpprEngine, CpprOptions, TimingAnalyzer
from repro.corners import CornerSet
from repro.io.frontend import load_design
from repro.io.sdf import TRIPLE_MEMBERS

try:
    import numpy  # noqa: F401
    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    HAVE_NUMPY = False

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy required")

YOSYS_FIXTURE = "tests/io/fixtures/counter.json"
SDF_FIXTURE = "tests/io/fixtures/counter.sdf"

CONFIGS = [
    pytest.param("scalar", "serial", id="scalar"),
    pytest.param("scalar", "thread", id="scalar-thread"),
    pytest.param("array", "serial", id="array-batched",
                 marks=needs_numpy),
    pytest.param("array", "thread", id="array-batched-thread",
                 marks=needs_numpy),
    pytest.param("array", "process", id="array-batched-process",
                 marks=needs_numpy),
]


def _key(path):
    return (path.slack, path.credit, tuple(path.pins), path.family,
            path.launch_ff, path.capture_ff, path.level)


def _keys(paths):
    return [_key(path) for path in paths]


@pytest.fixture(scope="module")
def imported():
    return load_design(YOSYS_FIXTURE, sdf=SDF_FIXTURE, sdf_corners=True)


@pytest.fixture(scope="module")
def reference(imported):
    """The scalar/serial answer every other configuration must match."""
    engine = CpprEngine(
        TimingAnalyzer(imported.graph, imported.constraints),
        CpprOptions(backend="scalar", executor="serial"))
    return {mode: _keys(engine.top_paths(6, mode))
            for mode in ("setup", "hold")}


class TestBackendExecutorEquivalence:
    @pytest.mark.parametrize("backend, executor", CONFIGS)
    def test_bit_for_bit_reports(self, imported, reference, backend,
                                 executor, mode="setup"):
        engine = CpprEngine(
            TimingAnalyzer(imported.graph, imported.constraints),
            CpprOptions(backend=backend, executor=executor))
        for mode in ("setup", "hold"):
            assert _keys(engine.top_paths(6, mode)) == reference[mode]

    def test_pipeline_finds_cppr_credit(self, reference):
        # The fixture's shared clock buffer (cb1) guarantees common
        # path pessimism on every FF-to-FF path.
        credits = [key[1] for key in reference["setup"]]
        assert any(credit > 0 for credit in credits)


class TestSdfCornerRealization:
    def test_members_become_corners(self, imported):
        assert isinstance(imported.corners, CornerSet)
        assert imported.corners.names == TRIPLE_MEMBERS

    def test_fused_corners_match_independent_engines(self, imported):
        fused = CpprEngine(
            TimingAnalyzer(imported.graph, imported.constraints),
            CpprOptions(corners=imported.corners))
        by_corner = fused.top_paths_by_corner(6, "setup")
        for member in TRIPLE_MEMBERS:
            alone = load_design(YOSYS_FIXTURE, sdf=SDF_FIXTURE,
                                sdf_members=(member,), sdf_corners=True)
            solo = CpprEngine(
                TimingAnalyzer(alone.graph, alone.constraints),
                CpprOptions(corners=alone.corners))
            solo_paths = solo.top_paths_by_corner(6, "setup")[member]
            assert _keys(by_corner[member]) == _keys(solo_paths)

    def test_corner_ordering_tracks_triples(self, imported):
        # Pure min/typ/max corners: larger member values mean slower
        # data paths, so setup slack must be monotonically worse.
        engine = CpprEngine(
            TimingAnalyzer(imported.graph, imported.constraints),
            CpprOptions(corners=imported.corners))
        by_corner = engine.top_paths_by_corner(1, "setup")
        slacks = [by_corner[m][0].slack for m in ("min", "typ", "max")]
        assert slacks[0] > slacks[1] > slacks[2]

    @needs_numpy
    def test_corner_sweep_backend_equivalence(self, imported):
        answers = []
        for backend in ("scalar", "array"):
            engine = CpprEngine(
                TimingAnalyzer(imported.graph, imported.constraints),
                CpprOptions(backend=backend, corners=imported.corners))
            by_corner = engine.top_paths_by_corner(6, "setup")
            answers.append({name: _keys(paths)
                            for name, paths in by_corner.items()})
        assert answers[0] == answers[1]
