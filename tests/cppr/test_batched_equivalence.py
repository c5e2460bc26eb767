"""Engine-level equivalence: the array engine vs the scalar engine.

The array backend runs the batched sweep, whose rows are bit-for-bit
the scalar level passes (``tests/core/test_batched.py``), so its
reports must carry the scalar reference's exact pin sequences,
families, credits and levels, with slacks within the usual 1e-12 (the
deviation search sums the same costs in a different association).
This is the contract that lets ``backend`` default to ``"auto"``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

pytest.importorskip("numpy", exc_type=ImportError)

from repro import CpprEngine
from repro.sta.modes import AnalysisMode
from repro.sta.timing import TimingAnalyzer
from tests.helpers import demo_design, random_small

MODES = list(AnalysisMode)
SLACK_TOL = 1e-12

#: Counters that measure algorithmic work the batch must not change.
PARITY_COUNTERS = (
    "propagation.seeds", "propagation.pins_visited",
    "deviation.seeds", "deviation.edges_explored",
    "deviation.edges_generated", "deviation.paths_reported",
    "candidates.produced.level", "select.considered", "select.selected",
)


def _assert_same(got, want):
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert abs(a.slack - b.slack) <= SLACK_TOL, f"path {i}"
        assert a.pins == b.pins, f"path {i}: pin sequences differ"
        assert a.family == b.family, f"path {i}"
        assert a.credit == b.credit, f"path {i}"
        assert a.level == b.level, f"path {i}"


def _engine(analyzer, backend, **options):
    return CpprEngine(analyzer).with_options(backend=backend, **options)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from(MODES),
       st.integers(min_value=1, max_value=25))
def test_engine_reports_identical(design_seed, mode, k):
    graph, constraints = random_small(design_seed)
    analyzer = TimingAnalyzer(graph, constraints)
    _assert_same(_engine(analyzer, "array").top_paths(k, mode),
                 _engine(analyzer, "scalar").top_paths(k, mode))


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from(MODES))
def test_layered_designs_identical(design_seed, mode):
    graph, constraints = random_small(design_seed, layers=3, channels=2,
                                      num_gates=18)
    analyzer = TimingAnalyzer(graph, constraints)
    _assert_same(_engine(analyzer, "array").top_paths(15, mode),
                 _engine(analyzer, "scalar").top_paths(15, mode))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("heap_capacity", [None, 8])
def test_heap_capacity_composes(mode, heap_capacity):
    graph, constraints = random_small(13)
    analyzer = TimingAnalyzer(graph, constraints)
    _assert_same(
        _engine(analyzer, "array", heap_capacity=heap_capacity)
        .top_paths(8, mode),
        _engine(analyzer, "scalar", heap_capacity=heap_capacity)
        .top_paths(8, mode))


@pytest.mark.parametrize("executor", ["serial", "thread", "process"])
def test_executors_compose(executor):
    # The batch is built in the parent before the pool starts; workers
    # must consume the shared matrices without re-propagating.
    from repro.cppr.parallel import available_executors
    if executor not in available_executors():
        pytest.skip(f"executor {executor} unavailable here")
    graph, constraints = random_small(11)
    analyzer = TimingAnalyzer(graph, constraints)
    reference = _engine(analyzer, "scalar").top_paths(10, "setup")
    got = _engine(analyzer, "array",
                  executor=executor).top_paths(10, "setup")
    _assert_same(got, reference)


def test_demo_design_identical_all_k():
    graph, constraints = demo_design()
    analyzer = TimingAnalyzer(graph, constraints)
    for mode in MODES:
        for k in (1, 3, 10, 50):
            _assert_same(_engine(analyzer, "array").top_paths(k, mode),
                         _engine(analyzer, "scalar").top_paths(k, mode))


def test_counter_parity():
    # Batching changes *where* propagation work happens, not how much:
    # the algorithmic counters agree with the scalar level passes, and
    # the array run additionally reports its own build accounting.
    graph, constraints = demo_design()
    analyzer = TimingAnalyzer(graph, constraints)
    _paths, array = _engine(analyzer, "array").profiled_top_paths(
        10, "setup")
    _paths, scalar = _engine(analyzer, "scalar").profiled_top_paths(
        10, "setup")
    for name in PARITY_COUNTERS:
        assert array.counter(name) == scalar.counter(name), name
    assert array.counter("batched.builds") == 1
    assert array.counter("batched.levels") == graph.clock_tree.num_levels
    assert scalar.counter("batched.builds") == 0
    assert array.span_seconds("propagate.batched") > 0.0


@pytest.mark.parametrize("executor", ["serial", "thread", "process"])
def test_array_query_runs_no_single_propagation(executor, monkeypatch):
    # Rows D and D + 1 of the sweep serve the self-loop and
    # primary-input families, so an array query never runs the
    # standalone single-tuple pass.  Patched to raise, any call would
    # fail the strict query (and degrade, warn, a lenient one).
    import warnings

    import repro.core.propagate as core_propagate
    from repro.cppr.parallel import available_executors
    from repro.cppr.selfloop_paths import self_loop_paths
    from repro.exceptions import DegradedResultWarning

    if executor not in available_executors():
        pytest.skip(f"executor {executor} unavailable here")
    graph, constraints = random_small(11)
    analyzer = TimingAnalyzer(graph, constraints)
    want = {mode: _engine(analyzer, "scalar").top_paths(10, mode)
            for mode in MODES}

    def forbidden(*_args, **_kwargs):
        raise AssertionError("propagate_single_array called")

    monkeypatch.setattr(core_propagate, "propagate_single_array",
                        forbidden)
    # The patch is live: a standalone array caller hits it.
    with pytest.raises(AssertionError):
        self_loop_paths(analyzer, 5, "setup", None, "array")
    for options in ({"strict": True}, {}):
        engine = _engine(analyzer, "array", executor=executor, workers=2,
                         **options)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegradedResultWarning)
            for mode in MODES:
                _assert_same(engine.top_paths(10, mode), want[mode])
        assert engine.last_degraded == ()


def test_single_families_read_their_rows():
    # On the array backend the self-loop and primary-input spans hold
    # the row slice and the search, and no propagation of their own.
    graph, constraints = random_small(7)
    analyzer = TimingAnalyzer(graph, constraints)
    _paths, profile = _engine(analyzer, "array").profiled_top_paths(
        5, "setup")
    families = [node for node in profile.iter_spans()
                if node.name in ("self_loop", "primary_input")]
    assert sorted(node.name for node in families) == [
        "primary_input", "self_loop"]
    for node in families:
        assert [child.name for child in node.children] == [
            "propagate.slice", "search"], node.name
    _paths, scalar = _engine(analyzer, "scalar").profiled_top_paths(
        5, "setup")
    for node in scalar.iter_spans():
        if node.name in ("self_loop", "primary_input"):
            assert [child.name for child in node.children] == [
                "propagate", "search"], node.name
