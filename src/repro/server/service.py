"""The timing service: designs, sessions, and the request envelope.

:class:`TimingService` is the transport-independent core of
CPPR-as-a-service.  It loads designs once (one immutable
:class:`~repro.core.arrays.CoreStructure` each), opens many concurrent
:class:`~repro.pipeline.session.CpprSession` /
:class:`~repro.pipeline.session.MultiCornerSession` forks over them
(copy-on-write ``CoreValues`` per session), and answers the
``rank_paths`` / ``compute_slack`` / ``verify_path`` query vocabulary
per corner and mode — plus journaled ECO updates and
checkpoint/restore on sessions.

``handle(method, path, body, deadline)`` is a plain thread-safe call
returning ``(status, payload)``; the asyncio HTTP adapter
(:mod:`repro.server.http`) dispatches socket requests onto a worker
pool, and the test-suite calls it in-process.  Every heavy request
passes through the robustness envelope, in order:

1. **drain gate** — a draining server answers 503 immediately;
2. **admission** (:class:`~repro.server.admission.AdmissionGate`) —
   bounded queue, load-shedding 429s, ``server.inflight`` /
   ``server.shed{reason}`` metrics;
3. **circuit breaker** (:class:`~repro.server.breaker.CircuitBreaker`,
   per design) — open circuits answer 503 with ``Retry-After``;
   repeated degraded results demote the design down the
   ``array -> scalar`` ladder;
4. **deadline scope** — the request's remaining budget becomes the
   ambient :func:`~repro.cppr.parallel.deadline_scope`, so cooperative
   cancellation propagates into the resilient scheduler and the
   session replay loop; expiry surfaces as a structured 408, never a
   partial report;
5. **crash recovery** — a session operation that dies
   (``server.session_crash``) is rebuilt by journal replay, verified
   to the exact pre-crash ``values_version``, and retried once.

Chaos sites ``server.request_timeout`` / ``server.session_crash`` /
``server.queue_overflow`` strike inside steps 4, 5 and 2 respectively.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import faults
from repro.cppr.engine import CpprEngine, CpprOptions
from repro.cppr.parallel import check_deadline, deadline_scope
from repro.cppr.pathutils import build_timing_path
from repro.exceptions import (AnalysisError, DeadlineExpired,
                              ExecutionError, FormatError, ReproError)
from repro.io.eco import EcoUpdates, parse_eco_updates
from repro.io.reports import paths_to_dicts
from repro.obs import collector as _obs
from repro.obs import metrics as _metrics
from repro.obs.collector import Collector
from repro.pipeline.session import MultiCornerSession
from repro.server.admission import AdmissionGate
from repro.server.breaker import DEMOTION_RUNGS, CircuitBreaker
from repro.server.errors import (ApiError, BadRequest, DeadlineError,
                                 Draining, InternalError, MethodNotAllowed,
                                 NotFound, SessionCrashed)
from repro.server.journal import (SessionJournal, normalize_basis,
                                  replay_journal)
from repro.sta.modes import AnalysisMode
from repro.sta.timing import TimingAnalyzer

__all__ = ["ServerOptions", "TimingService"]

_REQUESTS = _metrics.REGISTRY.counter(
    "server.requests", labels=("endpoint", "status"),
    help="Requests handled by the timing server, by endpoint and "
         "HTTP status")

_REQUEST_SECONDS = _metrics.REGISTRY.histogram(
    "server.request_seconds",
    buckets=(0.005, 0.02, 0.1, 0.5, 2.0, 10.0),
    help="Wall-clock latency of handled requests")

_RECOVERY = _metrics.REGISTRY.counter(
    "server.recovery", labels=("outcome",),
    help="Session crash-recovery attempts by outcome "
         "(replayed / diverged / failed)")

#: CpprOptions fields a client may set per design / per session.
_OPTION_KEYS = frozenset({
    "executor", "workers", "include_self_loops",
    "include_primary_inputs", "include_output_tests", "heap_capacity",
    "backend", "task_timeout", "max_retries", "retry_backoff",
    "strict"})


@dataclass(frozen=True, slots=True)
class ServerOptions:
    """Tunables of the robustness envelope (validated eagerly)."""

    host: str = "127.0.0.1"
    port: int = 8787
    max_inflight: int = 8
    queue_depth: int = 16
    deadline: float | None = 30.0
    drain_grace: float = 10.0
    breaker_failures: int = 3
    breaker_degraded: int = 3
    breaker_cooldown: float = 30.0
    trace_out: str | None = None
    span_log: str | None = None

    def __post_init__(self) -> None:
        if not self.host:
            raise AnalysisError("server host must be non-empty")
        if not isinstance(self.port, int) or isinstance(self.port, bool) \
                or not 0 <= self.port <= 65535:
            raise AnalysisError(
                f"server port must be an integer in [0, 65535], "
                f"got {self.port!r}")
        if not isinstance(self.max_inflight, int) \
                or isinstance(self.max_inflight, bool) \
                or self.max_inflight < 1:
            raise AnalysisError(
                f"max-inflight must be a positive integer, "
                f"got {self.max_inflight!r}")
        if not isinstance(self.queue_depth, int) \
                or isinstance(self.queue_depth, bool) \
                or self.queue_depth < 0:
            raise AnalysisError(
                f"queue-depth must be a non-negative integer, "
                f"got {self.queue_depth!r}")
        if self.deadline is not None and (
                isinstance(self.deadline, bool)
                or not isinstance(self.deadline, (int, float))
                or self.deadline <= 0):
            raise AnalysisError(
                f"deadline must be a positive number of seconds or "
                f"None, got {self.deadline!r}")
        if (isinstance(self.drain_grace, bool)
                or not isinstance(self.drain_grace, (int, float))
                or self.drain_grace < 0):
            raise AnalysisError(
                f"drain-grace must be >= 0 seconds, "
                f"got {self.drain_grace!r}")
        for name, value in (("breaker-failures", self.breaker_failures),
                            ("breaker-degraded", self.breaker_degraded)):
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 1:
                raise AnalysisError(
                    f"{name} must be a positive integer, got {value!r}")
        if (isinstance(self.breaker_cooldown, bool)
                or not isinstance(self.breaker_cooldown, (int, float))
                or self.breaker_cooldown < 0):
            raise AnalysisError(
                f"breaker-cooldown must be >= 0 seconds, "
                f"got {self.breaker_cooldown!r}")


@dataclass
class _DesignEntry:
    token: str
    analyzer: TimingAnalyzer
    options: CpprOptions
    engine: CpprEngine
    breaker: CircuitBreaker
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: Lazily constructed demoted-rung engines, keyed by rung index.
    rung_engines: dict[int, CpprEngine] = field(default_factory=dict)

    def engine_for_rung(self, rung: int) -> CpprEngine:
        if rung == 0:
            return self.engine
        with self.lock:
            engine = self.rung_engines.get(rung)
            if engine is None:
                engine = self.engine.with_options(**DEMOTION_RUNGS[rung])
                engine.meta_context = dict(self.engine.meta_context)
                self.rung_engines[rung] = engine
        return engine


@dataclass
class _SessionEntry:
    sid: str
    design: _DesignEntry
    session: Any  # CpprSession | MultiCornerSession
    journal: SessionJournal
    lock: threading.Lock = field(default_factory=threading.Lock)
    crashes: int = 0
    recovered: int = 0


class TimingService:
    """The transport-independent CPPR service (see module docstring)."""

    def __init__(self, options: ServerOptions | None = None) -> None:
        self.options = options or ServerOptions()
        self.gate = AdmissionGate(self.options.max_inflight,
                                  self.options.queue_depth)
        self._lock = threading.Lock()
        self._designs: dict[str, _DesignEntry] = {}
        self._sessions: dict[str, _SessionEntry] = {}
        self._design_seq = itertools.count(1)
        self._session_seq = itertools.count(1)
        self._draining = False
        self._drained = threading.Event()
        self._started = time.monotonic()
        self._collector: Collector | None = None
        self._previous_collector: Collector | None = None
        #: Set by the HTTP layer once the listening socket is bound.
        self.bound_port: int | None = None
        #: Profile of the most recent heavy request served while a
        #: collector was active, stamped with the serving context
        #: (design token, session id, corner count) via the engine's /
        #: session's ``profile_meta()``.
        self.last_profile = None

    # ==================================================================
    # Lifecycle
    # ==================================================================
    def start_collecting(self) -> None:
        """Install a server-lifetime collector (for trace export)."""
        if self._collector is None:
            self._collector = Collector()
            self._previous_collector = _obs.ACTIVE
            _obs.ACTIVE = self._collector

    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self) -> None:
        """Stop admitting heavy requests (in-flight work continues)."""
        self._draining = True

    def drain(self, grace: float | None = None) -> dict:
        """Finish in-flight work and flush obs state.

        Returns a summary of what was flushed.  Safe to call more than
        once; the drain gate stays closed afterwards.
        """
        self.begin_drain()
        grace = self.options.drain_grace if grace is None else grace
        waited = time.monotonic()
        while self.gate.inflight > 0 \
                and time.monotonic() - waited < grace:
            time.sleep(0.01)
        summary = {"inflight_at_flush": self.gate.inflight,
                   "trace_out": None, "span_log": None}
        if self._collector is not None:
            profile = self._collector.profile().with_meta(
                self._serving_meta())
            if self.options.trace_out:
                from repro.obs.export import write_chrome_trace
                write_chrome_trace(self.options.trace_out, profile)
                summary["trace_out"] = self.options.trace_out
            if self.options.span_log:
                from repro.obs.export import write_span_log
                write_span_log(self.options.span_log, profile)
                summary["span_log"] = self.options.span_log
            _obs.ACTIVE = self._previous_collector
            self._collector = None
        self._drained.set()
        return summary

    def _serving_meta(self) -> dict[str, str]:
        with self._lock:
            return {"server": "repro-timing-service",
                    "designs": str(len(self._designs)),
                    "sessions": str(len(self._sessions))}

    # ==================================================================
    # The request envelope
    # ==================================================================
    def handle(self, method: str, path: str,
               body: dict | None = None,
               deadline: float | None = None) -> tuple[int, dict]:
        """Serve one request; returns ``(status, json_payload)``.

        ``deadline`` (seconds, e.g. from an ``X-Deadline`` header) and
        a ``"deadline"`` body field override the server default; the
        tightest given budget wins.  Never raises — every failure is a
        structured error document.
        """
        started = time.monotonic()
        endpoint = "unmatched"
        heavy = False
        try:
            if body is None:
                body = {}
            if not isinstance(body, dict):
                raise BadRequest("request body must be a JSON object")
            name, heavy, fn, params = self._match(method.upper(), path)
            endpoint = name
            budget = self._budget(body, deadline)
            if heavy:
                if self._draining:
                    raise Draining(
                        "server is draining; no new work accepted")
                expires_at = (None if budget is None
                              else started + budget)
                payload = self._run_heavy(fn, params, body, expires_at)
            else:
                payload = fn(params, body)
            status = 200
            if not isinstance(payload, dict):
                payload = {"result": payload}
            payload.setdefault("ok", True)
        except ApiError as exc:
            status, payload = exc.status, exc.body()
        except DeadlineExpired as exc:
            error = DeadlineError(str(exc))
            status, payload = error.status, error.body()
        except FormatError as exc:
            error = BadRequest(str(exc))
            status, payload = error.status, error.body()
        except ExecutionError as exc:
            error = InternalError(f"query execution failed: {exc}")
            status, payload = error.status, error.body()
        except AnalysisError as exc:
            error = BadRequest(str(exc))
            status, payload = error.status, error.body()
        except ReproError as exc:
            error = InternalError(str(exc))
            status, payload = error.status, error.body()
        except Exception as exc:  # noqa: BLE001 - the last line of defense
            error = InternalError(f"unexpected server error: {exc!r}")
            status, payload = error.status, error.body()
        elapsed = time.monotonic() - started
        _REQUESTS.labels(endpoint=endpoint, status=str(status)).inc()
        if heavy:
            _REQUEST_SECONDS.labels().observe(elapsed)
        return status, payload

    def _budget(self, body: dict, header: float | None) -> float | None:
        budget = self.options.deadline
        if header is not None:
            budget = header if budget is None else min(budget, header)
        raw = body.get("deadline")
        if raw is not None:
            if isinstance(raw, bool) or not isinstance(raw, (int, float)) \
                    or raw <= 0:
                raise BadRequest(
                    f"deadline must be a positive number of seconds, "
                    f"got {raw!r}")
            budget = raw if budget is None else min(budget, float(raw))
        return budget

    def _run_heavy(self, fn: Callable, params: dict, body: dict,
                   expires_at: float | None) -> dict:
        remaining = (None if expires_at is None
                     else expires_at - time.monotonic())
        with self.gate.admit(remaining):
            with deadline_scope(expires_at):
                # The injected hung-handler: sleeps, so the next
                # deadline check answers 408 before any compute runs.
                faults.check("server.request_timeout")
                check_deadline()
                return fn(params, body)

    # ==================================================================
    # Routing
    # ==================================================================
    def _match(self, method: str, path: str):
        segments = [s for s in path.split("?")[0].split("/") if s]
        for (m, pattern, name, heavy, fn) in self._routes():
            if len(pattern) != len(segments):
                continue
            params = {}
            for want, got in zip(pattern, segments):
                if want.startswith("{"):
                    params[want[1:-1]] = got
                elif want != got:
                    break
            else:
                if m != method:
                    continue
                return name, heavy, fn, params
        # Distinguish 405 from 404: does any method match the path?
        for (m, pattern, name, _heavy, _fn) in self._routes():
            if len(pattern) == len(segments) and all(
                    want.startswith("{") or want == got
                    for want, got in zip(pattern, segments)):
                raise MethodNotAllowed(
                    f"{method} not allowed on {path}")
        raise NotFound(f"no route for {method} {path}")

    def _routes(self):
        return (
            ("GET", ["healthz"], "healthz", False, self._ep_healthz),
            ("GET", ["metrics"], "metrics", False, self._ep_metrics),
            ("GET", ["designs"], "designs.list", False,
             self._ep_designs_list),
            ("POST", ["designs"], "designs.create", True,
             self._ep_designs_create),
            ("GET", ["designs", "{token}"], "designs.get", False,
             self._ep_design_get),
            ("DELETE", ["designs", "{token}"], "designs.delete", False,
             self._ep_design_delete),
            ("POST", ["designs", "{token}", "rank_paths"],
             "designs.rank_paths", True, self._ep_design_rank),
            ("POST", ["designs", "{token}", "compute_slack"],
             "designs.compute_slack", True, self._ep_design_slack),
            ("POST", ["designs", "{token}", "verify_path"],
             "designs.verify_path", True, self._ep_design_verify),
            ("GET", ["sessions"], "sessions.list", False,
             self._ep_sessions_list),
            ("POST", ["sessions"], "sessions.create", True,
             self._ep_sessions_create),
            ("POST", ["sessions", "restore"], "sessions.restore", True,
             self._ep_sessions_restore),
            ("GET", ["sessions", "{sid}"], "sessions.get", False,
             self._ep_session_get),
            ("DELETE", ["sessions", "{sid}"], "sessions.delete", False,
             self._ep_session_delete),
            ("POST", ["sessions", "{sid}", "update"], "sessions.update",
             True, self._ep_session_update),
            ("POST", ["sessions", "{sid}", "rank_paths"],
             "sessions.rank_paths", True, self._ep_session_rank),
            ("POST", ["sessions", "{sid}", "compute_slack"],
             "sessions.compute_slack", True, self._ep_session_slack),
            ("POST", ["sessions", "{sid}", "verify_path"],
             "sessions.verify_path", True, self._ep_session_verify),
            ("GET", ["sessions", "{sid}", "checkpoint"],
             "sessions.checkpoint", False, self._ep_session_checkpoint),
        )

    # ==================================================================
    # Designs
    # ==================================================================
    def add_design(self, graph, constraints,
                   cppr_options: CpprOptions | None = None,
                   token: str | None = None) -> str:
        """Register a loaded design (the CLI preload path)."""
        if token is None:
            token = graph.name or f"d{next(self._design_seq)}"
        analyzer = TimingAnalyzer(graph, constraints)
        options = cppr_options or CpprOptions()
        engine = CpprEngine(analyzer, options)
        corners = len(engine._corner_analyzers)
        engine.meta_context = {"design": token,
                               "serving_corners": str(corners)}
        entry = _DesignEntry(
            token=token, analyzer=analyzer, options=options,
            engine=engine,
            breaker=CircuitBreaker(
                failure_threshold=self.options.breaker_failures,
                degraded_threshold=self.options.breaker_degraded,
                cooldown=self.options.breaker_cooldown))
        with self._lock:
            if token in self._designs:
                raise BadRequest(f"design token {token!r} already loaded")
            self._designs[token] = entry
        return token

    def _design(self, token: str) -> _DesignEntry:
        with self._lock:
            entry = self._designs.get(token)
        if entry is None:
            raise NotFound(f"unknown design {token!r}")
        return entry

    def _design_info(self, entry: _DesignEntry) -> dict:
        graph = entry.analyzer.graph
        with self._lock:
            sessions = [sid for sid, s in self._sessions.items()
                        if s.design is entry]
        return {"token": entry.token,
                "design": graph.name,
                "pins": graph.num_pins,
                "ffs": graph.num_ffs,
                "corners": list(entry.engine._corner_analyzers),
                "backend": entry.engine.backend,
                "executor": entry.options.executor,
                "breaker": entry.breaker.describe(),
                "sessions": sessions}

    def _ep_designs_list(self, params: dict, body: dict) -> dict:
        with self._lock:
            entries = list(self._designs.values())
        return {"designs": [self._design_info(e) for e in entries]}

    def _ep_designs_create(self, params: dict, body: dict) -> dict:
        known = {"suite", "scale", "path", "token", "options",
                 "corners", "deadline", "format", "sdc", "sdf",
                 "sdf_corners", "clock_period"}
        unknown = set(body) - known
        if unknown:
            raise BadRequest(
                f"unknown field(s) {sorted(unknown)}; expected "
                f"{sorted(known)}")
        suite, path = body.get("suite"), body.get("path")
        if (suite is None) == (path is None):
            raise BadRequest(
                "pass exactly one of 'suite' or 'path'")
        cppr_options = self._parse_options(body.get("options"))
        corner_list: list = []
        corners = body.get("corners")
        if corners is not None:
            from repro.corners import Corner
            if not isinstance(corners, dict) or not corners:
                raise BadRequest(
                    "'corners' must map corner names to ECO objects")
            corner_list = [
                Corner.from_eco(name,
                                parse_eco_updates(
                                    eco, where=f"corners[{name!r}]"))
                for name, eco in corners.items()]
        if suite is not None:
            for key in ("format", "sdc", "sdf", "sdf_corners",
                        "clock_period"):
                if body.get(key):
                    raise BadRequest(
                        f"{key!r} applies to file designs, not 'suite'")
            from repro.workloads.suite import build_design
            scale = body.get("scale", 1.0)
            if isinstance(scale, bool) \
                    or not isinstance(scale, (int, float)) or scale <= 0:
                raise BadRequest(
                    f"scale must be a positive number, got {scale!r}")
            try:
                graph, constraints = build_design(suite, scale=float(scale))
            except KeyError as exc:
                raise BadRequest(str(exc.args[0]) if exc.args
                                 else f"unknown suite {suite!r}") from None
        else:
            if not isinstance(path, str):
                raise BadRequest("'path' must be a file path string")
            format_name = body.get("format", "auto")
            if not isinstance(format_name, str):
                raise BadRequest("'format' must be a format name string")
            clock_period = body.get("clock_period")
            if clock_period is not None and (
                    isinstance(clock_period, bool)
                    or not isinstance(clock_period, (int, float))
                    or clock_period <= 0):
                raise BadRequest(
                    f"clock_period must be a positive number, got "
                    f"{clock_period!r}")
            from repro.io.frontend import load_design
            imported = load_design(
                path, format=format_name,
                sdc=body.get("sdc"), sdf=body.get("sdf"),
                clock_period=clock_period,
                sdf_corners=bool(body.get("sdf_corners")))
            graph, constraints = imported
            if imported.corners is not None:
                corner_list = list(imported.corners) + corner_list
        if corner_list:
            from repro.corners import CornerSet
            cppr_options = CpprOptions(**{
                **_options_dict(cppr_options),
                "corners": CornerSet(corner_list)})
        token = self.add_design(graph, constraints, cppr_options,
                                token=body.get("token"))
        return {"token": token,
                "design": self._design_info(self._design(token))}

    def _ep_design_get(self, params: dict, body: dict) -> dict:
        return {"design": self._design_info(self._design(params["token"]))}

    def _ep_design_delete(self, params: dict, body: dict) -> dict:
        entry = self._design(params["token"])
        with self._lock:
            del self._designs[entry.token]
            dropped = [sid for sid, s in self._sessions.items()
                       if s.design is entry]
            for sid in dropped:
                del self._sessions[sid]
        return {"deleted": entry.token, "sessions_dropped": dropped}

    # -- design-scoped queries -----------------------------------------
    def _ep_design_rank(self, params: dict, body: dict) -> dict:
        return self._design_query(params["token"], body, self._rank)

    def _ep_design_slack(self, params: dict, body: dict) -> dict:
        return self._design_query(params["token"], body, self._slack)

    def _ep_design_verify(self, params: dict, body: dict) -> dict:
        return self._design_query(params["token"], body, self._verify)

    def _design_query(self, token: str, body: dict, op) -> dict:
        entry = self._design(token)
        rung = entry.breaker.before_request()
        engine = entry.engine_for_rung(rung)
        try:
            with entry.lock:
                payload = op(_EngineTarget(engine), body)
        except (DeadlineExpired, ApiError):
            # Deadlines and structured rejections are the client's
            # budget or the envelope itself — not design health.
            raise
        except AnalysisError as exc:
            if isinstance(exc, ExecutionError):
                entry.breaker.record_failure()
            raise
        except Exception:
            entry.breaker.record_failure()
            raise
        degraded = bool(engine.last_degraded)
        entry.breaker.record_success(degraded=degraded)
        if rung > 0:
            payload["demoted"] = {
                "rung": rung,
                "overrides": dict(DEMOTION_RUNGS[rung]),
                "retry_after": round(entry.breaker.retry_after(), 3)}
        if degraded:
            payload["degraded"] = True
        self._stamp_profile(engine)
        return payload

    def _stamp_profile(self, target) -> None:
        col = _obs.ACTIVE
        if col is not None:
            self.last_profile = col.profile().with_meta(
                target.profile_meta())

    # ==================================================================
    # Sessions
    # ==================================================================
    def _ep_sessions_list(self, params: dict, body: dict) -> dict:
        with self._lock:
            entries = list(self._sessions.values())
        return {"sessions": [self._session_info(e) for e in entries]}

    def _session_info(self, entry: _SessionEntry) -> dict:
        return {"sid": entry.sid,
                "design": entry.design.token,
                "basis": normalize_basis(entry.session.basis()),
                "journal_entries": len(entry.journal),
                "crashes": entry.crashes,
                "recovered": entry.recovered}

    def _ep_sessions_create(self, params: dict, body: dict) -> dict:
        known = {"design", "options", "deadline"}
        unknown = set(body) - known
        if unknown:
            raise BadRequest(
                f"unknown field(s) {sorted(unknown)}; expected "
                f"{sorted(known)}")
        token = body.get("design")
        if not isinstance(token, str):
            raise BadRequest("'design' must name a loaded design token")
        design = self._design(token)
        changes = _options_changes(self._parse_options(
            body.get("options")))
        session = design.engine.session(**changes)
        return {"session": self._register_session(design, session)}

    def _register_session(self, design: _DesignEntry, session) -> dict:
        sid = f"s{next(self._session_seq)}"
        corners = (len(session.sessions)
                   if isinstance(session, MultiCornerSession) else 0)
        session.meta_context = {"design": design.token,
                                "session": sid,
                                "serving_corners": str(corners)}
        entry = _SessionEntry(sid=sid, design=design, session=session,
                              journal=SessionJournal(design.token))
        with self._lock:
            self._sessions[sid] = entry
        return self._session_info(entry)

    def _session_entry(self, sid: str) -> _SessionEntry:
        with self._lock:
            entry = self._sessions.get(sid)
        if entry is None:
            raise NotFound(f"unknown session {sid!r}")
        return entry

    def _ep_session_get(self, params: dict, body: dict) -> dict:
        return {"session": self._session_info(
            self._session_entry(params["sid"]))}

    def _ep_session_delete(self, params: dict, body: dict) -> dict:
        entry = self._session_entry(params["sid"])
        with self._lock:
            self._sessions.pop(entry.sid, None)
        return {"deleted": entry.sid}

    def _ep_session_checkpoint(self, params: dict, body: dict) -> dict:
        entry = self._session_entry(params["sid"])
        with entry.lock:
            checkpoint = entry.journal.to_dict()
            checkpoint["live_basis"] = normalize_basis(
                entry.session.basis())
        return {"checkpoint": checkpoint}

    def _ep_sessions_restore(self, params: dict, body: dict) -> dict:
        raw = body.get("checkpoint")
        if raw is None:
            raise BadRequest("missing 'checkpoint' document")
        journal = SessionJournal.from_dict(raw)
        design = self._design(journal.design)
        session = replay_journal(journal, design.engine)
        info = self._register_session(design, session)
        with self._lock:
            self._sessions[info["sid"]].journal = journal
        info["basis"] = normalize_basis(session.basis())
        return {"session": info, "replayed_entries": len(journal)}

    def _ep_session_update(self, params: dict, body: dict) -> dict:
        entry = self._session_entry(params["sid"])
        known = {"delays", "clock", "deadline"}
        unknown = set(body) - known
        if unknown:
            raise BadRequest(
                f"unknown field(s) {sorted(unknown)}; expected "
                f"{sorted(known)}")
        eco = parse_eco_updates(
            {k: body[k] for k in ("delays", "clock") if k in body},
            where="<update>")

        def op(session):
            summary = session.update(delays=eco.delays,
                                     clock=dict(eco.clock) or None)
            entry.journal.record(eco, session.basis())
            return {"update": summary,
                    "basis": normalize_basis(session.basis()),
                    "journal_entries": len(entry.journal)}

        return self._session_op(entry, op)

    def _ep_session_rank(self, params: dict, body: dict) -> dict:
        return self._session_query(params["sid"], body, self._rank)

    def _ep_session_slack(self, params: dict, body: dict) -> dict:
        return self._session_query(params["sid"], body, self._slack)

    def _ep_session_verify(self, params: dict, body: dict) -> dict:
        return self._session_query(params["sid"], body, self._verify)

    def _session_query(self, sid: str, body: dict, op) -> dict:
        entry = self._session_entry(sid)

        def run(session):
            payload = op(_SessionTarget(session), body)
            payload["basis"] = normalize_basis(session.basis())
            return payload

        return self._session_op(entry, run)

    def _session_op(self, entry: _SessionEntry, op) -> dict:
        """Run one session operation with crash recovery by replay."""
        with entry.lock:
            try:
                faults.check("server.session_crash")
                payload = op(entry.session)
            except (DeadlineExpired, ApiError, ReproError):
                raise
            except Exception as exc:
                self._recover(entry, exc)
                try:
                    payload = op(entry.session)
                except (DeadlineExpired, ApiError, ReproError):
                    raise
                except Exception as retry_exc:
                    _RECOVERY.labels(outcome="failed").inc_durable()
                    entry.design.breaker.record_failure()
                    raise SessionCrashed(
                        f"session {entry.sid} crashed again after "
                        f"recovery: {retry_exc!r}") from retry_exc
        entry.design.breaker.record_success()
        self._stamp_profile(entry.session)
        return payload

    def _recover(self, entry: _SessionEntry, exc: Exception) -> None:
        """Rebuild a crashed session by journal replay (verified)."""
        entry.crashes += 1
        try:
            session = replay_journal(entry.journal, entry.design.engine)
        except SessionCrashed:
            _RECOVERY.labels(outcome="diverged").inc_durable()
            entry.design.breaker.record_failure()
            raise
        session.meta_context = dict(entry.session.meta_context)
        entry.session = session
        entry.recovered += 1
        _RECOVERY.labels(outcome="replayed").inc_durable()
        _obs.add("server.session.recovered")

    # ==================================================================
    # The query vocabulary (shared by designs and sessions)
    # ==================================================================
    def _rank(self, target: "_Target", body: dict) -> dict:
        k, mode, corner = self._query_args(target, body)
        page = _page_arg(body, "page", 0)
        page_size = _page_arg(body, "page_size", k, minimum=1)
        paths = target.top_paths(k, mode, corner)
        start = page * page_size
        sliced = paths[start:start + page_size]
        serialized = paths_to_dicts(target.analyzer(corner), sliced)
        for offset, entry in enumerate(serialized):
            entry["rank"] = start + offset + 1
        return {"mode": mode.value,
                "corner": corner,
                "k": k,
                "total": len(paths),
                "page": page,
                "page_size": page_size,
                "paths": serialized}

    def _slack(self, target: "_Target", body: dict) -> dict:
        k, mode, corner = self._query_args(target, body)
        paths = target.top_paths(k, mode, corner)
        return {"mode": mode.value,
                "corner": corner,
                "k": k,
                "slacks": [path.slack for path in paths],
                "wns": paths[0].slack if paths else None}

    def _verify(self, target: "_Target", body: dict) -> dict:
        _k, mode, corner = self._query_args(target, body, need_k=False)
        pins = body.get("pins")
        if not isinstance(pins, list) or not pins \
                or not all(isinstance(p, str) for p in pins):
            raise BadRequest(
                "'pins' must be a non-empty list of pin names")
        analyzer = target.analyzer(corner)
        graph = analyzer.graph
        indices = []
        for name in pins:
            index = graph.pin_index.get(name)
            if index is None:
                raise BadRequest(f"unknown pin {name!r}")
            indices.append(index)
        path = build_timing_path(analyzer, tuple(indices), mode)
        payload = {"mode": mode.value,
                   "corner": corner,
                   "path": paths_to_dicts(analyzer, [path])[0]}
        expected = body.get("expect_slack")
        if expected is not None:
            if isinstance(expected, bool) \
                    or not isinstance(expected, (int, float)):
                raise BadRequest("expect_slack must be a number")
            payload["matches"] = (
                abs(path.slack - float(expected)) <= 1e-9)
        return payload

    def _query_args(self, target: "_Target", body: dict,
                    need_k: bool = True):
        known = {"k", "mode", "corner", "page", "page_size", "pins",
                 "expect_slack", "deadline"}
        unknown = set(body) - known
        if unknown:
            raise BadRequest(
                f"unknown field(s) {sorted(unknown)}; expected a "
                f"subset of {sorted(known)}")
        k = body.get("k", 1 if not need_k else None)
        if need_k:
            if k is None:
                raise BadRequest("missing 'k' (number of paths)")
            if isinstance(k, bool) or not isinstance(k, int) or k < 1:
                raise BadRequest(
                    f"k must be a positive integer, got {k!r}")
        mode_raw = body.get("mode", "setup")
        try:
            mode = AnalysisMode.coerce(mode_raw)
        except (ValueError, KeyError, AnalysisError):
            raise BadRequest(
                f"unknown mode {mode_raw!r}; expected 'setup' or "
                f"'hold'") from None
        corner = body.get("corner")
        if corner is not None and not isinstance(corner, str):
            raise BadRequest("'corner' must be a corner name string")
        target.validate_corner(corner)
        return k, mode, corner

    # ==================================================================
    # Introspection endpoints
    # ==================================================================
    def _ep_healthz(self, params: dict, body: dict) -> dict:
        with self._lock:
            designs = len(self._designs)
            sessions = len(self._sessions)
            recovered = sum(e.recovered for e in self._sessions.values())
            crashes = sum(e.crashes for e in self._sessions.values())
        return {"status": "draining" if self._draining else "serving",
                "uptime_seconds": round(
                    time.monotonic() - self._started, 3),
                "designs": designs,
                "sessions": sessions,
                "inflight": self.gate.inflight,
                "waiting": self.gate.waiting,
                "shed": dict(self.gate.shed_counts),
                "crashes": crashes,
                "recovered": recovered}

    def _ep_metrics(self, params: dict, body: dict) -> dict:
        return {"metrics": _metrics.REGISTRY.snapshot()}

    # ==================================================================
    def _parse_options(self, raw) -> CpprOptions:
        if raw is None:
            return CpprOptions()
        if not isinstance(raw, dict):
            raise BadRequest("'options' must be an object")
        unknown = set(raw) - _OPTION_KEYS
        if unknown:
            raise BadRequest(
                f"unknown option(s) {sorted(unknown)}; valid options: "
                f"{sorted(_OPTION_KEYS)}")
        try:
            options = CpprOptions(**raw)
            # Validation normally happens at engine construction;
            # surface it here so bad options 400 before any load.
            from repro.cppr.engine import _validate_options
            _validate_options(options)
        except (TypeError, ValueError) as exc:
            raise BadRequest(f"invalid options: {exc}") from None
        return options


def _options_dict(options: CpprOptions) -> dict:
    from dataclasses import asdict, fields
    return {f.name: getattr(options, f.name)
            for f in fields(CpprOptions)}


def _options_changes(options: CpprOptions) -> dict:
    """Only the fields that differ from the defaults (for session())."""
    defaults = CpprOptions()
    return {name: value
            for name, value in _options_dict(options).items()
            if value != getattr(defaults, name)}


def _page_arg(body: dict, key: str, default: int,
              minimum: int = 0) -> int:
    value = body.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) \
            or value < minimum:
        raise BadRequest(
            f"{key} must be an integer >= {minimum}, got {value!r}")
    return value


class _Target:
    """Uniform query adapter over an engine or a session."""


class _EngineTarget(_Target):
    def __init__(self, engine: CpprEngine) -> None:
        self.engine = engine

    def top_paths(self, k, mode, corner):
        return self.engine.top_paths(k, mode, corner=corner)

    def analyzer(self, corner):
        if corner is None:
            return self.engine.analyzer
        return self.engine._corner_analyzers[corner]

    def validate_corner(self, corner) -> None:
        self.engine._corner_key(corner)

    def profile_meta(self):
        return self.engine.profile_meta()


class _SessionTarget(_Target):
    def __init__(self, session) -> None:
        self.session = session

    def top_paths(self, k, mode, corner):
        if isinstance(self.session, MultiCornerSession):
            return self.session.top_paths(k, mode, corner)
        if corner is not None:
            raise BadRequest(
                f"this session has no corners; drop corner={corner!r}")
        return self.session.top_paths(k, mode)

    def analyzer(self, corner):
        if isinstance(self.session, MultiCornerSession):
            return self.session._session(corner).analyzer
        return self.session.analyzer

    def validate_corner(self, corner) -> None:
        if isinstance(self.session, MultiCornerSession):
            self.session._session(corner)
        elif corner is not None:
            raise BadRequest(
                f"this session has no corners; drop corner={corner!r}")

    def profile_meta(self):
        return self.session.profile_meta()
