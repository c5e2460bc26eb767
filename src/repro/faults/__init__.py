"""repro.faults — deterministic fault injection for chaos testing.

The resilient execution layer (scheduler retries, executor fallback,
backend degradation) is only trustworthy if its failure paths are
exercised on every CI run.  This package provides *named injection
sites* that production code consults at the exact points where real
faults strike, armed with *seeded, reproducible trigger schedules* so a
chaos test that fails once fails every time.

Usage::

    from repro import faults

    with faults.inject("task.exception:times=1,after=2"):
        engine.top_paths(50, "setup")   # third task raises, then recovers

or from the environment (picked up at import time, shared with forked
workers)::

    REPRO_FAULTS="task.timeout:times=1,seconds=0.2;numpy.import:times=1"

Sites are checked with :func:`check`, which is a single module-global
load plus an identity test when nothing is armed — the same
zero-cost-when-disabled pattern as :mod:`repro.obs`.

See ``docs/ROBUSTNESS.md`` for the full site reference.
"""

from repro.faults.injection import (ENV_VAR, SITES, FaultPlan, FaultSpec,
                                    InjectedFault, active_plan, armed,
                                    check, export_plan_state, inject,
                                    install_plan_state, mark_worker_process,
                                    plan_from_env, plan_from_specs,
                                    triggered)

__all__ = [
    "ENV_VAR",
    "SITES",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "active_plan",
    "armed",
    "check",
    "export_plan_state",
    "inject",
    "install_plan_state",
    "mark_worker_process",
    "plan_from_env",
    "plan_from_specs",
    "triggered",
]
