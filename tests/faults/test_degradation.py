"""Graceful degradation: backend ladder, strict mode, targeted queries."""

from __future__ import annotations

import warnings

import pytest

from tests.helpers import demo_analyzer

from repro import (CpprEngine, CpprOptions, DegradedResultWarning,
                   ExecutionError)
from repro.core import HAVE_NUMPY, safer_backend
from repro.cppr.queries import endpoint_paths, pair_paths
from repro.exceptions import AnalysisError
from repro.faults import FaultSpec, inject

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY,
                                 reason="array substrate needs numpy")


def _fingerprint(paths):
    return [(round(p.slack, 9), tuple(p.pins)) for p in paths]


class TestSaferBackend:
    def test_ladder(self):
        assert safer_backend("array") == "scalar"
        assert safer_backend("scalar") is None

    def test_rejects_unresolved_names(self):
        with pytest.raises(ValueError):
            safer_backend("auto")


def _events(engine):
    return [{k: v for k, v in event.items() if k not in ("error", "trace")}
            for event in engine.last_degraded]


@needs_numpy
class TestEngineBackendLadder:
    def test_batched_build_failure_degrades(self):
        # The sweep dies: the query runs on the scalar rung, recorded
        # as one descent for the build.
        analyzer = demo_analyzer()
        want = _fingerprint(CpprEngine(analyzer, CpprOptions(
            backend="scalar")).top_paths(6, "setup"))
        engine = CpprEngine(analyzer, CpprOptions(backend="array"))
        with inject(FaultSpec("numpy.import", times=1)):
            with pytest.warns(DegradedResultWarning):
                paths, profile = engine.profiled_top_paths(6, "setup")
        assert _fingerprint(paths) == want
        assert _events(engine) == [{"event": "degrade.backend",
                                    "task": "build", "source": "array",
                                    "target": "scalar"}]
        assert profile.counter("degrade.backend") == 1
        assert profile.counter("batched.builds") == 0

    def test_array_pass_falls_to_scalar(self, monkeypatch):
        # The sweep builds, then the first level pass dies reading its
        # slice: that pass alone re-runs on the scalar rung.
        from repro.core.batched import BatchedLevels

        analyzer = demo_analyzer()
        want = _fingerprint(CpprEngine(analyzer, CpprOptions(
            backend="scalar")).top_paths(6, "setup"))
        engine = CpprEngine(analyzer, CpprOptions(backend="array"))
        slice_level = BatchedLevels.arrays
        calls = []

        def failing_once(batch, level):
            calls.append(level)
            if len(calls) == 1:
                raise MemoryError("slice allocation failed")
            return slice_level(batch, level)

        monkeypatch.setattr(BatchedLevels, "arrays", failing_once)
        with pytest.warns(DegradedResultWarning):
            got = _fingerprint(engine.top_paths(6, "setup"))
        assert got == want
        assert _events(engine) == [{"event": "degrade.backend",
                                    "task": f"level/{calls[0]}",
                                    "source": "array",
                                    "target": "scalar"}]
        # The re-run reads no slice: it propagates on the scalar rung.
        assert calls.count(calls[0]) == 1

    def test_strict_raises_instead_of_degrading(self):
        engine = CpprEngine(demo_analyzer(), CpprOptions(
            backend="array", strict=True))
        with inject(FaultSpec("numpy.import", times=None)):
            with pytest.raises(ExecutionError):
                engine.top_paths(6, "setup")

    def test_strict_task_fault_raises(self):
        engine = CpprEngine(demo_analyzer(), CpprOptions(strict=True))
        with inject(FaultSpec("task.exception", times=None)):
            with pytest.raises(ExecutionError):
                engine.top_paths(6, "setup")


class TestOptionValidation:
    @pytest.mark.parametrize("kwargs", [
        {"task_timeout": 0}, {"task_timeout": -1.0},
        {"task_timeout": True}, {"task_timeout": "5"},
        {"max_retries": -1}, {"max_retries": 1.5}, {"max_retries": True},
        {"retry_backoff": -0.1}, {"retry_backoff": "fast"},
        {"strict": "yes"},
    ])
    def test_bad_resilience_options_rejected_eagerly(self, kwargs):
        with pytest.raises(AnalysisError):
            CpprEngine(demo_analyzer(), CpprOptions(**kwargs))

    def test_good_resilience_options_accepted(self):
        engine = CpprEngine(demo_analyzer(), CpprOptions(
            task_timeout=5.0, max_retries=0, retry_backoff=0.0,
            strict=True))
        assert engine.options.strict


@needs_numpy
class TestQueryDegradation:
    def test_endpoint_paths_degrade_to_scalar(self):
        analyzer = demo_analyzer()
        want = _fingerprint(endpoint_paths(analyzer, "ff2", 4, "setup",
                                           backend="scalar"))
        with inject(FaultSpec("numpy.import", times=1)):
            got = _fingerprint(endpoint_paths(analyzer, "ff2", 4,
                                              "setup", backend="array"))
        assert got == want

    def test_pair_paths_degrade_to_scalar(self):
        analyzer = demo_analyzer()
        want = _fingerprint(pair_paths(analyzer, "ff1", "ff2", 4,
                                       "setup", backend="scalar"))
        with inject(FaultSpec("numpy.import", times=1)):
            got = _fingerprint(pair_paths(analyzer, "ff1", "ff2", 4,
                                          "setup", backend="array"))
        assert got == want

    def test_strict_query_raises(self):
        analyzer = demo_analyzer()
        with inject(FaultSpec("numpy.import", times=None)):
            with pytest.raises(ExecutionError):
                endpoint_paths(analyzer, "ff2", 4, "setup",
                               backend="array", strict=True)
            with pytest.raises(ExecutionError):
                pair_paths(analyzer, "ff1", "ff2", 4, "setup",
                           backend="array", strict=True)

    def test_scalar_floor_failure_surfaces(self):
        # When even the last rung dies the query must raise, not loop.
        analyzer = demo_analyzer()
        with inject(FaultSpec("memory.pressure", times=None)):
            with pytest.raises((ExecutionError, MemoryError)):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    engine = CpprEngine(analyzer, CpprOptions(
                        max_retries=0, retry_backoff=0.0))
                    engine.top_paths(4, "setup")
