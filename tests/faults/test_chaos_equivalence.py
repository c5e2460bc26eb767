"""Chaos equivalence: every recovery path returns the exact clean answer.

The whole degradation design rests on one invariant — every rung of
every ladder (executor fallback, backend degradation, retries) computes
bit-for-bit the same report.  These tests inject each fault site under
each executor and demand the top-path report equal a clean
serial/scalar reference, path for path, slack for slack.
"""

from __future__ import annotations

import warnings

import pytest

from tests.helpers import demo_analyzer, random_small

from repro import (CpprEngine, CpprOptions, DegradedResultWarning,
                   TimingAnalyzer)
from repro.faults import SITES, FaultSpec, inject
from repro.cppr.parallel import available_executors
from repro.obs import collecting

EXECUTORS = [e for e in ("serial", "thread", "process")
             if e in available_executors()]


def _fingerprint(paths):
    return [(round(p.slack, 9), tuple(p.pins)) for p in paths]


def _reference(analyzer, k=6, mode="setup"):
    clean = CpprEngine(analyzer, CpprOptions(executor="serial",
                                             backend="scalar"))
    return _fingerprint(clean.top_paths(k, mode))


def _spec_for(site: str, executor: str) -> FaultSpec:
    """A terminating schedule for ``site`` under ``executor``.

    ``task.timeout`` needs care: pooled rungs detect the hang via
    ``task_timeout`` (so the injected sleep may be long), while the
    serial rung runs tasks inline and simply waits the sleep out (so it
    must be short).
    """
    if site == "task.timeout":
        seconds = 0.05 if executor == "serial" else 2.0
        return FaultSpec(site, times=1, seconds=seconds)
    return FaultSpec(site, times=1)


class TestSiteByExecutorMatrix:
    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("site", SITES)
    def test_injected_site_yields_clean_report(self, site, executor):
        analyzer = demo_analyzer()
        want = _reference(analyzer)
        options = CpprOptions(executor=executor, workers=2,
                              task_timeout=0.3, max_retries=1,
                              retry_backoff=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            with inject(_spec_for(site, executor)):
                engine = CpprEngine(analyzer, options)
                got = _fingerprint(engine.top_paths(6, "setup"))
        assert got == want, f"{site} under {executor} changed the report"

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_multi_site_storm(self, executor):
        """Several sites armed at once, rate-based, over both modes."""
        graph, constraints = random_small(3)
        analyzer = TimingAnalyzer(graph, constraints)
        want = {mode: _reference(analyzer, k=8, mode=mode)
                for mode in ("setup", "hold")}
        options = CpprOptions(executor=executor, workers=2,
                              task_timeout=0.5, max_retries=2,
                              retry_backoff=0.0)
        plan = [FaultSpec("task.exception", times=2, rate=0.5, seed=11),
                FaultSpec("memory.pressure", times=1, after=1),
                FaultSpec("numpy.import", times=1)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            with inject(*plan):
                engine = CpprEngine(analyzer, options)
                got = {mode: _fingerprint(engine.top_paths(8, mode))
                       for mode in ("setup", "hold")}
        assert got == want


class TestDegradationIsObservable:
    def test_degraded_run_warns_and_records(self):
        analyzer = demo_analyzer()
        want = _reference(analyzer)
        engine = CpprEngine(analyzer, CpprOptions(max_retries=1,
                                                  retry_backoff=0.0))
        with inject(FaultSpec("task.exception", times=1)):
            with pytest.warns(DegradedResultWarning,
                              match="still exact"):
                got = _fingerprint(engine.top_paths(6, "setup"))
        assert got == want
        names = [e["event"] for e in engine.last_degraded]
        assert "faults.task_error" in names
        assert "faults.retry" in names

    def test_profile_carries_the_degraded_section(self):
        analyzer = demo_analyzer()
        engine = CpprEngine(analyzer, CpprOptions(max_retries=1,
                                                  retry_backoff=0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            with inject(FaultSpec("memory.pressure", times=1)):
                with collecting():
                    engine.top_paths(6, "setup")
        profile = engine.last_profile
        assert profile.degraded == engine.last_degraded
        assert profile.counters["faults.task_error"] == 1
        assert profile.counters[
            "faults.injected.memory.pressure"] == 1
        # The section survives the wire format and the renderer.
        from repro.obs import format_profile
        from repro.obs.profile import Profile
        assert Profile.from_dict(
            profile.to_dict()).degraded == profile.degraded
        assert "-- degraded --" in format_profile(profile)

    def test_clean_runs_record_nothing(self):
        analyzer = demo_analyzer()
        engine = CpprEngine(analyzer, CpprOptions())
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegradedResultWarning)
            engine.top_paths(6, "setup")
        assert engine.last_degraded == ()
