"""Per-design circuit breaker over the engine's degradation ladder.

The scheduler already recovers *inside* a query: a fault walks the
``array -> scalar`` / ``process -> thread -> serial`` ladders and the
answer stays exact.  The breaker closes the loop *across* queries: a
design whose requests keep coming back degraded is paying ladder-walk
latency on every call, so the breaker proactively **demotes** the
design to the safer rung the queries were ending up on anyway
(``backend="scalar"``) and re-probes the configured rung after a
cooldown.  Demotion changes how fast answers are computed, never what
they contain — every rung is bit-for-bit equivalent.

Hard failures are handled classically: ``failure_threshold``
consecutive errors **open** the circuit and requests for that design
are rejected with a structured 503 carrying a ``Retry-After`` hint;
after the cooldown one half-open probe decides between closing and
re-opening.

State transitions are counted on ``server.breaker{event}``
(``open`` / ``half_open`` / ``close`` / ``demote`` / ``promote``).
"""

from __future__ import annotations

import threading
import time

from repro.obs import metrics as _metrics
from repro.server.errors import BreakerOpen

__all__ = ["CircuitBreaker", "DEMOTION_RUNGS"]

_BREAKER = _metrics.REGISTRY.counter(
    "server.breaker", labels=("event",),
    help="Circuit-breaker state transitions on the timing server")

#: Option overrides per demotion rung, safest last.  Rung 0 is the
#: design's configured options; each next rung pre-applies the safer
#: strategy degraded queries were falling back to.
DEMOTION_RUNGS: tuple[dict, ...] = ({}, {"backend": "scalar"})


class CircuitBreaker:
    """Degraded-result and failure tracking for one served design."""

    def __init__(self, *, failure_threshold: int = 3,
                 degraded_threshold: int = 3,
                 cooldown: float = 30.0,
                 clock=time.monotonic) -> None:
        self.failure_threshold = failure_threshold
        self.degraded_threshold = degraded_threshold
        self.cooldown = cooldown
        self._clock = clock
        self._lock = threading.Lock()
        self.state = "closed"  # closed | open | half_open
        self.rung = 0
        self._failures = 0
        self._degraded = 0
        self._opened_at: float | None = None
        self._demoted_at: float | None = None

    # ------------------------------------------------------------------
    def _event(self, name: str) -> None:
        _BREAKER.labels(event=name).inc_durable()

    def retry_after(self) -> float:
        """Seconds until the next state probe is due."""
        with self._lock:
            stamp = (self._opened_at if self.state == "open"
                     else self._demoted_at)
        if stamp is None:
            return 0.0
        return max(0.0, self.cooldown - (self._clock() - stamp))

    # ------------------------------------------------------------------
    def before_request(self) -> int:
        """Gate one request; returns the demotion rung to serve it on.

        Raises :class:`BreakerOpen` (503 + ``Retry-After``) while the
        circuit is open inside its cooldown.  After the cooldown one
        caller is let through as the half-open probe; its outcome
        (:meth:`record_success` / :meth:`record_failure`) decides
        between closing and re-opening.  A demoted-but-closed design
        promotes back to the configured rung once its cooldown passes.
        """
        now = self._clock()
        with self._lock:
            if self.state == "open":
                opened_at = (self._opened_at if self._opened_at
                             is not None else now)
                elapsed = now - opened_at
                if elapsed < self.cooldown:
                    remaining = self.cooldown - elapsed
                    raise BreakerOpen(
                        f"circuit open for this design; retry in "
                        f"{remaining:.1f}s", retry_after=remaining)
                self.state = "half_open"
                self._event("half_open")
            elif self.rung > 0 and self._demoted_at is not None \
                    and now - self._demoted_at >= self.cooldown:
                # Cooled down: probe the configured fast rung again.
                self.rung = 0
                self._demoted_at = None
                self._degraded = 0
                self._event("promote")
            return self.rung

    # ------------------------------------------------------------------
    def record_success(self, degraded: bool = False) -> None:
        """Account one completed request (``degraded`` = exact result,
        but only after an in-query fallback)."""
        with self._lock:
            self._failures = 0
            if self.state in ("half_open", "open"):
                self.state = "closed"
                self._opened_at = None
                self._event("close")
            if not degraded:
                self._degraded = 0
                return
            self._degraded += 1
            if (self._degraded >= self.degraded_threshold
                    and self.rung < len(DEMOTION_RUNGS) - 1):
                self.rung += 1
                self._degraded = 0
                self._demoted_at = self._clock()
                self._event("demote")

    def record_failure(self) -> None:
        """Account one hard failure (error or unrecovered crash)."""
        with self._lock:
            self._failures += 1
            if self.state == "half_open" \
                    or self._failures >= self.failure_threshold:
                if self.state != "open":
                    self._event("open")
                self.state = "open"
                self._failures = 0
                self._opened_at = self._clock()

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """A JSON-ready snapshot for status endpoints."""
        with self._lock:
            return {"state": self.state,
                    "rung": self.rung,
                    "rung_overrides": dict(DEMOTION_RUNGS[self.rung]),
                    "retry_after": round(self.retry_after_locked(), 3)}

    def retry_after_locked(self) -> float:
        stamp = (self._opened_at if self.state == "open"
                 else self._demoted_at)
        if stamp is None:
            return 0.0
        return max(0.0, self.cooldown - (self._clock() - stamp))
