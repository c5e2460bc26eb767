"""The robustness envelope: deadlines, shedding, the breaker, and
crash recovery — the acceptance criteria of the server PR.

The central invariants:

* a deadline-expired or shed request is a *structured* 408/429 JSON
  document, never a partial report — across executors and backends,
  with and without numpy;
* an injected ``server.session_crash`` is invisible to the client: the
  session is rebuilt by verified journal replay and the retried answer
  is bit-for-bit the no-crash answer;
* repeated hard failures open the design's circuit (503 +
  ``Retry-After``), repeated degraded results demote it down the
  array -> scalar ladder.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import CpprOptions, DegradedResultWarning, faults
from repro.cppr.parallel import available_executors
from repro.server.breaker import CircuitBreaker, DEMOTION_RUNGS
from repro.server.errors import BreakerOpen

from tests.server.conftest import add_demo, make_service

try:
    import numpy  # noqa: F401
    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    HAVE_NUMPY = False

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy required")

ECO = {"delays": [{"driver": "g1/Y", "sink": "ff2/D",
                   "early": 0.4, "late": 0.9}]}

CONFIGS = [
    pytest.param({"executor": "serial", "backend": "scalar"},
                 id="serial-scalar"),
    pytest.param({"executor": "serial", "backend": "array"},
                 id="serial-array", marks=needs_numpy),
    pytest.param({"executor": "thread", "workers": 2},
                 id="thread"),
    pytest.param({"executor": "process", "workers": 2},
                 id="process",
                 marks=pytest.mark.skipif(
                     "process" not in available_executors(),
                     reason="no fork support")),
]


class TestDeadlines:
    @pytest.mark.parametrize("options", CONFIGS)
    def test_expired_deadline_is_structured_408(self, options):
        service = make_service()
        add_demo(service, **options)
        with faults.inject(
                "server.request_timeout:times=1,seconds=0.05"):
            status, payload = service.handle(
                "POST", "/designs/demo/rank_paths",
                {"k": 3, "deadline": 0.01})
        assert status == 408, payload
        assert payload["ok"] is False
        assert payload["error"]["code"] == "deadline"
        assert "paths" not in payload  # never a partial report

    def test_deadline_propagates_into_session_queries(self, service):
        _, payload = service.handle("POST", "/sessions",
                                    {"design": "demo"})
        sid = payload["session"]["sid"]
        with faults.inject(
                "server.request_timeout:times=1,seconds=0.05"):
            status, payload = service.handle(
                "POST", f"/sessions/{sid}/rank_paths",
                {"k": 3, "deadline": 0.01})
        assert status == 408
        assert payload["error"]["code"] == "deadline"

    def test_header_budget_and_body_budget_tightest_wins(self, service):
        with faults.inject(
                "server.request_timeout:times=1,seconds=0.05"):
            status, payload = service.handle(
                "POST", "/designs/demo/rank_paths",
                {"k": 2, "deadline": 60.0}, deadline=0.01)
        assert status == 408

    def test_generous_deadline_serves_normally(self, service):
        status, payload = service.handle(
            "POST", "/designs/demo/rank_paths",
            {"k": 2, "deadline": 60.0})
        assert status == 200 and len(payload["paths"]) == 2


class TestAdmission:
    def _slow_request(self, service, started, seconds="0.3"):
        """One request parked inside the envelope via injected sleep."""
        def run(results):
            started.set()
            with faults.inject(
                    f"server.request_timeout:times=1,"
                    f"seconds={seconds}"):
                results.append(service.handle(
                    "POST", "/designs/demo/rank_paths", {"k": 1}))
        results: list = []
        thread = threading.Thread(target=run, args=(results,))
        thread.start()
        return thread, results

    def test_queue_full_sheds_with_429(self):
        service = make_service(max_inflight=1, queue_depth=0)
        add_demo(service)
        barrier = threading.Event()
        thread, results = self._slow_request(service, barrier)
        barrier.wait()
        deadline = time.monotonic() + 5.0
        while service.gate.inflight == 0 \
                and time.monotonic() < deadline:
            time.sleep(0.005)
        status, payload = service.handle(
            "POST", "/designs/demo/rank_paths", {"k": 1})
        thread.join()
        assert status == 429, payload
        assert payload["error"]["code"] == "overloaded"
        assert payload["error"]["retry_after"] > 0
        assert results[0][0] == 200  # the slow request still completed
        assert service.gate.shed_counts == {"queue_full": 1}

    def test_injected_overflow_sheds_with_429(self, service):
        with faults.inject("server.queue_overflow:times=1"):
            status, payload = service.handle(
                "POST", "/designs/demo/rank_paths", {"k": 1})
        assert status == 429
        assert "overflow" in payload["error"]["message"]
        assert service.gate.shed_counts == {"overflow": 1}

    def test_deadline_expiry_while_queued_is_408(self):
        service = make_service(max_inflight=1, queue_depth=4)
        add_demo(service)
        barrier = threading.Event()
        thread, results = self._slow_request(service, barrier)
        barrier.wait()
        deadline = time.monotonic() + 5.0
        while service.gate.inflight == 0 \
                and time.monotonic() < deadline:
            time.sleep(0.005)
        status, payload = service.handle(
            "POST", "/designs/demo/rank_paths",
            {"k": 1, "deadline": 0.05})
        thread.join()
        assert status == 408, payload
        assert "queued" in payload["error"]["message"]
        assert service.gate.shed_counts == {"deadline": 1}

    def test_draining_rejects_new_work_with_503(self, service):
        service.begin_drain()
        status, payload = service.handle(
            "POST", "/designs/demo/rank_paths", {"k": 1})
        assert status == 503
        assert payload["error"]["code"] == "draining"
        status, _ = service.handle("GET", "/healthz")
        assert status == 200  # introspection stays up


class TestCrashRecovery:
    @pytest.mark.parametrize("options", CONFIGS)
    def test_recovered_session_is_bit_for_bit(self, options):
        service = make_service()
        add_demo(service, **options)
        _, payload = service.handle("POST", "/sessions",
                                    {"design": "demo"})
        sid = payload["session"]["sid"]
        status, _ = service.handle("POST", f"/sessions/{sid}/update",
                                   dict(ECO))
        assert status == 200
        _, want = service.handle("POST", f"/sessions/{sid}/rank_paths",
                                 {"k": 3})
        with faults.inject("server.session_crash:times=1"):
            status, got = service.handle(
                "POST", f"/sessions/{sid}/rank_paths", {"k": 3})
        assert status == 200, got
        assert got["paths"] == want["paths"]
        assert got["basis"] == want["basis"]
        _, info = service.handle("GET", f"/sessions/{sid}")
        assert info["session"]["crashes"] == 1
        assert info["session"]["recovered"] == 1

    def test_crash_during_update_replays_to_exact_version(self, service):
        _, payload = service.handle("POST", "/sessions",
                                    {"design": "demo"})
        sid = payload["session"]["sid"]
        service.handle("POST", f"/sessions/{sid}/update", dict(ECO))
        second = {"delays": [{"driver": "ff3/Q", "sink": "g1/A1",
                              "early": 0.2, "late": 0.3}]}
        with faults.inject("server.session_crash:times=1"):
            status, payload = service.handle(
                "POST", f"/sessions/{sid}/update", second)
        assert status == 200, payload
        # Replay restored [0, 1], then the retried update landed [0, 2].
        assert payload["basis"] == [0, 2]
        assert payload["journal_entries"] == 2

    def test_divergent_replay_is_structured_500(self, service):
        """A crash whose journal no longer reproduces the session must
        surface as a structured 500, never a silently wrong answer."""
        _, payload = service.handle("POST", "/sessions",
                                    {"design": "demo"})
        sid = payload["session"]["sid"]
        service.handle("POST", f"/sessions/{sid}/update", dict(ECO))
        # Corrupt the recorded basis (as a torn journal write would).
        entry = service._session_entry(sid)
        tampered = entry.journal._entries[-1]
        entry.journal._entries[-1] = type(tampered)(
            eco=tampered.eco, basis=[7, 99])
        with faults.inject("server.session_crash:times=1"):
            status, payload = service.handle(
                "POST", f"/sessions/{sid}/rank_paths", {"k": 2})
        assert status == 500, payload
        assert payload["error"]["code"] == "session_crashed"
        assert "diverged" in payload["error"]["message"]
        assert "paths" not in payload

    def test_restore_with_wrong_basis_is_rejected(self, service):
        _, payload = service.handle("POST", "/sessions",
                                    {"design": "demo"})
        sid = payload["session"]["sid"]
        service.handle("POST", f"/sessions/{sid}/update", dict(ECO))
        _, payload = service.handle("GET",
                                    f"/sessions/{sid}/checkpoint")
        checkpoint = payload["checkpoint"]
        checkpoint["entries"][-1]["basis"] = [3, 14]
        status, payload = service.handle(
            "POST", "/sessions/restore", {"checkpoint": checkpoint})
        assert status == 500
        assert payload["error"]["code"] == "session_crashed"
        assert "diverged" in payload["error"]["message"]


class TestBreaker:
    def test_unit_open_and_half_open_cycle(self):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=2, cooldown=10.0,
                                 clock=lambda: clock[0])
        assert breaker.before_request() == 0
        breaker.record_failure()
        breaker.record_failure()
        with pytest.raises(BreakerOpen) as info:
            breaker.before_request()
        assert info.value.retry_after == pytest.approx(10.0)
        clock[0] = 11.0
        assert breaker.before_request() == 0  # the half-open probe
        breaker.record_success()
        assert breaker.state == "closed"

    def test_unit_half_open_failure_reopens(self):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, cooldown=5.0,
                                 clock=lambda: clock[0])
        breaker.record_failure()
        clock[0] = 6.0
        breaker.before_request()
        breaker.record_failure()
        assert breaker.state == "open"

    def test_unit_degraded_results_demote_then_promote(self):
        clock = [0.0]
        breaker = CircuitBreaker(degraded_threshold=2, cooldown=30.0,
                                 clock=lambda: clock[0])
        breaker.record_success(degraded=True)
        breaker.record_success(degraded=True)
        assert breaker.rung == 1  # the scalar floor
        assert breaker.before_request() == 1
        breaker.record_success(degraded=True)
        breaker.record_success(degraded=True)
        assert breaker.rung == 1
        clock[0] = 31.0
        assert breaker.before_request() == 0  # cooled down: re-probe

    def test_service_opens_circuit_after_hard_failures(self):
        service = make_service(breaker_failures=2,
                               breaker_cooldown=0.2)
        add_demo(service, executor="thread", workers=2, strict=True,
                 max_retries=0)
        with faults.inject("task.exception:times=inf"):
            for _ in range(2):
                status, payload = service.handle(
                    "POST", "/designs/demo/rank_paths", {"k": 2})
                assert status == 500, payload
            status, payload = service.handle(
                "POST", "/designs/demo/rank_paths", {"k": 2})
        assert status == 503
        assert payload["error"]["code"] == "breaker_open"
        assert payload["error"]["retry_after"] > 0
        time.sleep(0.25)
        # Cooldown passed, faults gone: the half-open probe closes it.
        status, payload = service.handle(
            "POST", "/designs/demo/rank_paths", {"k": 2})
        assert status == 200, payload
        _, info = service.handle("GET", "/designs/demo")
        assert info["design"]["breaker"]["state"] == "closed"

    @needs_numpy
    def test_service_demotes_after_degraded_streak(self):
        service = make_service(breaker_degraded=2,
                               breaker_cooldown=60.0)
        add_demo(service, backend="array")
        with pytest.warns(DegradedResultWarning):
            for _ in range(2):
                # Each query loses numpy once: exact answer, but only
                # after an in-query backend fallback -> degraded.
                with faults.inject("numpy.import:times=1"):
                    status, payload = service.handle(
                        "POST", "/designs/demo/rank_paths", {"k": 2})
                assert status == 200, payload
                assert payload.get("degraded") is True
        # The breaker demoted; the next answer is served on a safer
        # rung — and is still exact.
        status, payload = service.handle(
            "POST", "/designs/demo/rank_paths", {"k": 2})
        assert status == 200
        assert payload["demoted"]["rung"] == 1
        assert payload["demoted"]["overrides"] == \
            DEMOTION_RUNGS[payload["demoted"]["rung"]]
        clean = make_service()
        add_demo(clean)
        _, want = clean.handle("POST", "/designs/demo/rank_paths",
                               {"k": 2})
        assert payload["paths"] == want["paths"]
