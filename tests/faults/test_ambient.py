"""Ambient chaos: exact reports while an env-armed fault plan is live.

The CI ``chaos`` job runs this module with ``REPRO_FAULTS`` exported,
so faults strike *around* the tests rather than inside a controlled
``inject()`` window — the closest CI gets to production failure timing.
Without the variable the tests arm a representative storm themselves,
so the module also bites when run locally.

Clean references are computed under ``inject()`` with no specs: that
shadows the ambient plan with an empty one for the duration, which is
exactly the escape hatch a production operator has.
"""

from __future__ import annotations

import os
import warnings

import pytest

from tests.helpers import demo_analyzer, random_small

from repro import (CpprEngine, CpprOptions, DegradedResultWarning,
                   TimingAnalyzer)
from repro.cppr.parallel import available_executors
from repro.faults import ENV_VAR, active_plan, armed, inject, plan_from_env

#: Armed when CI did not provide a schedule, so the module tests the
#: same machinery either way.
DEFAULT_STORM = ("task.exception:times=2;"
                 "memory.pressure:times=1,after=1;"
                 "numpy.import:times=1")

EXECUTORS = [e for e in ("serial", "thread", "process")
             if e in available_executors()]


def _fingerprint(paths):
    return [(round(p.slack, 9), tuple(p.pins)) for p in paths]


def _maybe_arm():
    """The ambient env plan if CI set one, else the default storm."""
    if os.environ.get(ENV_VAR):
        assert armed(), "REPRO_FAULTS set but no plan armed at import"
        return inject(plan=active_plan())
    return inject(plan=plan_from_env(DEFAULT_STORM))


class TestAmbientChaos:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_top_paths_exact_under_ambient_faults(self, executor):
        analyzer = demo_analyzer()
        with inject():  # empty plan: shadow ambient chaos for the ref
            want = _fingerprint(CpprEngine(analyzer, CpprOptions(
                backend="scalar")).top_paths(6, "setup"))
        options = CpprOptions(executor=executor, workers=2,
                              task_timeout=1.0, max_retries=3,
                              retry_backoff=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            with _maybe_arm():
                got = _fingerprint(CpprEngine(
                    analyzer, options).top_paths(6, "setup"))
        assert got == want

    def test_both_modes_on_a_random_design(self):
        graph, constraints = random_small(17)
        analyzer = TimingAnalyzer(graph, constraints)
        with inject():
            want = {mode: _fingerprint(CpprEngine(analyzer, CpprOptions(
                        backend="scalar")).top_paths(8, mode))
                    for mode in ("setup", "hold")}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            with _maybe_arm():
                engine = CpprEngine(analyzer, CpprOptions(
                    max_retries=3, retry_backoff=0.0))
                got = {mode: _fingerprint(engine.top_paths(8, mode))
                       for mode in ("setup", "hold")}
        assert got == want
