"""The fault-injection framework itself: specs, schedules, arming."""

from __future__ import annotations

import pytest
from concurrent.futures.process import BrokenProcessPool

from repro import faults
from repro.faults import (SITES, FaultPlan, FaultSpec, InjectedFault,
                          active_plan, armed, check, inject,
                          plan_from_env, plan_from_specs)
from repro.obs import collecting


class TestFaultSpec:
    def test_defaults(self):
        spec = FaultSpec("task.exception")
        assert spec.times == 1
        assert spec.after == 0
        assert spec.rate is None

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec("task.explode")

    @pytest.mark.parametrize("kwargs", [
        {"times": -1}, {"after": -1}, {"rate": -0.1}, {"rate": 1.5},
        {"seconds": -1.0},
    ])
    def test_bad_schedule_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultSpec("task.exception", **kwargs)

    def test_parse_bare_site(self):
        assert FaultSpec.parse("task.crash") == FaultSpec("task.crash")

    def test_parse_parameters(self):
        spec = FaultSpec.parse(
            "task.timeout:times=2,after=1,seconds=0.25,seed=7")
        assert spec == FaultSpec("task.timeout", times=2, after=1,
                                 seconds=0.25, seed=7)

    def test_parse_times_inf(self):
        assert FaultSpec.parse("pool.broken:times=inf").times is None

    def test_parse_rate(self):
        assert FaultSpec.parse("task.exception:rate=0.5").rate == 0.5

    @pytest.mark.parametrize("text", [
        "task.exception:times", "task.exception:times=",
        "task.exception:bogus=1", "no.such.site",
    ])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            FaultSpec.parse(text)


class TestFaultPlan:
    def test_times_limits_firings(self):
        plan = plan_from_specs(FaultSpec("task.exception", times=2))
        fires = [plan.should_trigger("task.exception") for _ in range(5)]
        assert fires == [True, True, False, False, False]

    def test_after_skips_early_hits(self):
        plan = plan_from_specs(FaultSpec("task.exception", times=1,
                                         after=2))
        fires = [plan.should_trigger("task.exception") for _ in range(5)]
        assert fires == [False, False, True, False, False]

    def test_unarmed_site_never_fires(self):
        plan = plan_from_specs(FaultSpec("task.exception"))
        assert not plan.should_trigger("pool.broken")

    def test_rate_schedule_is_deterministic(self):
        def draw():
            plan = plan_from_specs(
                FaultSpec("task.exception", times=None, rate=0.4,
                          seed=123))
            return [plan.should_trigger("task.exception")
                    for _ in range(50)]

        first, second = draw(), draw()
        assert first == second
        assert 0 < sum(first) < 50

    def test_duplicate_site_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            plan_from_specs(FaultSpec("task.crash"),
                            FaultSpec("task.crash"))

    def test_stats_track_hits_and_firings(self):
        plan = plan_from_specs(FaultSpec("task.exception", times=1))
        for _ in range(3):
            plan.should_trigger("task.exception")
        assert plan.stats() == {"task.exception": (3, 1)}


class TestEnvPlan:
    def test_absent_and_blank_arm_nothing(self):
        assert plan_from_env("") is None
        assert plan_from_env("   ") is None

    def test_multiple_specs_split_on_semicolon(self):
        plan = plan_from_env(
            "task.exception:times=1; numpy.import:times=2,after=1 ;")
        assert sorted(plan.sites) == ["numpy.import", "task.exception"]
        assert plan.spec("numpy.import").after == 1

    def test_env_variable_read(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "pool.broken:times=3")
        plan = plan_from_env()
        assert plan.spec("pool.broken").times == 3


@pytest.fixture
def no_ambient_plan(monkeypatch):
    """Disarm any ``REPRO_FAULTS`` ambient plan for one test.

    The disarmed-state assertions below describe the framework's
    resting state; under an env-armed CI job (the chaos workflow)
    that resting state is a live plan, so these tests
    neutralize it instead of failing on it.
    """
    from repro.faults import injection

    monkeypatch.setattr(injection, "_ACTIVE", None)


class TestInjectContext:
    def test_arms_and_disarms(self, no_ambient_plan):
        assert not armed()
        with inject(FaultSpec("task.exception")) as plan:
            assert armed()
            assert active_plan() is plan
        assert not armed()

    def test_inner_plan_shadows_outer(self):
        with inject(FaultSpec("task.exception")) as outer:
            with inject(FaultSpec("pool.broken")) as inner:
                assert active_plan() is inner
                check("task.exception")  # outer site: must not fire
            assert active_plan() is outer
        assert outer.stats()["task.exception"] == (0, 0)

    def test_accepts_spec_strings(self):
        with inject("memory.pressure:times=2") as plan:
            assert plan.spec("memory.pressure").times == 2

    def test_specs_and_plan_are_exclusive(self):
        plan = plan_from_specs(FaultSpec("task.crash"))
        with pytest.raises(ValueError):
            with inject(FaultSpec("task.crash"), plan=plan):
                pass

    def test_disarmed_on_exception(self, no_ambient_plan):
        with pytest.raises(RuntimeError, match="boom"):
            with inject(FaultSpec("task.exception")):
                raise RuntimeError("boom")
        assert not armed()


class TestCheckActions:
    def test_disarmed_check_is_a_no_op(self, no_ambient_plan):
        for site in SITES:
            check(site)

    @pytest.mark.parametrize("site,exc_type", [
        ("task.exception", InjectedFault),
        ("memory.pressure", MemoryError),
        ("numpy.import", ImportError),
        ("pool.broken", BrokenProcessPool),
    ])
    def test_raising_sites(self, site, exc_type):
        with inject(FaultSpec(site)):
            with pytest.raises(exc_type):
                check(site)
            check(site)  # schedule exhausted: no second firing

    def test_crash_raises_outside_worker_processes(self):
        # Only marked (fork-pool worker) processes die via os._exit;
        # everywhere else the crash must be a catchable exception.
        from repro.faults import injection
        assert not injection.WORKER_PROCESS
        with inject(FaultSpec("task.crash")):
            with pytest.raises(InjectedFault) as info:
                check("task.crash")
        assert info.value.site == "task.crash"

    def test_timeout_sleeps_and_returns(self):
        with inject(FaultSpec("task.timeout", seconds=0.0)):
            check("task.timeout")  # returns rather than raising

    def test_firings_counted_on_the_collector(self):
        with collecting() as col:
            with inject(FaultSpec("task.exception", times=2)):
                for _ in range(4):
                    try:
                        check("task.exception")
                    except InjectedFault:
                        pass
        assert col.profile().counters[
            "faults.injected.task.exception"] == 2
