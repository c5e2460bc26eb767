"""Named injection sites with seeded, reproducible trigger schedules.

A *site* is a point in production code where a real-world fault can
strike; a :class:`FaultSpec` describes *when* an armed site actually
fires (which hit indices, with what probability, how many times).  A
:class:`FaultPlan` binds several specs together and tracks per-site hit
counts, so schedules like "fail the third task once" are deterministic
across runs — and across the ``serial``/``thread``/``process``
executors, because pool workers install the armed plan.

The firing *action* is site-specific and models the real failure:

========================  ==============================================
``task.crash``            hard worker death: ``os._exit`` inside a fork
                          worker (detected as a broken pool by the
                          scheduler); raises :class:`InjectedFault` when
                          the current process is not expendable.
``task.timeout``          a hang: sleeps ``seconds`` (default 60) so a
                          configured task timeout expires.
``task.exception``        raises :class:`InjectedFault`.
``numpy.import``          raises ``ImportError`` from the array/batched
                          compute paths, as if numpy vanished mid-run.
``pool.broken``           raises ``BrokenProcessPool`` when the
                          scheduler starts a process rung.
``memory.pressure``       raises ``MemoryError`` inside a task.
``pipeline.stale_artifact``  *corrupts* instead of raising: the
                          incremental pipeline's artifact cache consults
                          :func:`triggered` at store time and poisons
                          the stored entry's validity basis, modelling a
                          cache whose invalidation hook was missed.  A
                          correct pipeline must then *detect* the key
                          mismatch and recompute rather than serve the
                          stale artifact (counter
                          ``pipeline.stale.detected``).
``server.request_timeout``  a hung request handler: sleeps ``seconds``
                          (default 60) inside the server's query worker
                          so the request's deadline expires and the
                          service must answer with a structured 408.
``server.session_crash``  raises :class:`InjectedFault` inside a server
                          session operation, modelling a worker that
                          died mid-ECO; the service must rebuild the
                          session by journal replay and retry.
``server.queue_overflow`` *corrupts* instead of raising: the server's
                          admission gate consults :func:`triggered` and
                          sheds the request as if the bounded queue
                          were full (structured 429).
``io.parse_error``        raises :class:`~repro.exceptions
                          .FormatError` at the design-frontend entry
                          point (:func:`repro.io.load_design`), as if
                          the design file were truncated or corrupt;
                          chaos CI uses it to prove ingestion always
                          surfaces a structured, located error — never
                          a partially-built design.
========================  ==============================================

The shared worker pool (:mod:`repro.cppr.shard`) can outlive
``inject()`` windows — it persists across queries that register no
batch, such as the scalar backend's — so fork-time plan inheritance is
not enough for it: the scheduler ships :func:`export_plan_state` with each task and
workers apply it via :func:`install_plan_state`, which installs each
armed plan *once per arming generation* — the per-worker-process
trigger semantics of a plan inherited at fork.
"""

from __future__ import annotations

import os
import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.obs import collector as _obs
from repro.obs import metrics as _metrics

__all__ = ["SITES", "FaultPlan", "FaultSpec", "InjectedFault",
           "active_plan", "armed", "check", "export_plan_state",
           "inject", "install_plan_state", "mark_worker_process",
           "plan_from_env", "plan_from_specs", "triggered"]

#: Every named injection site production code consults.
SITES = ("task.crash", "task.timeout", "task.exception", "numpy.import",
         "pool.broken", "memory.pressure", "pipeline.stale_artifact",
         "server.request_timeout", "server.session_crash",
         "server.queue_overflow", "io.parse_error")

#: Environment variable holding the ambient fault plan (see
#: :func:`plan_from_env` for the format).
ENV_VAR = "REPRO_FAULTS"

#: ``True`` in processes that may be killed outright by ``task.crash``
#: (fork-pool workers); set by :func:`mark_worker_process`.
WORKER_PROCESS = False

#: Labeled view of injected firings (one sample per site), recorded
#: durably next to the flat ``faults.injected.<site>`` counters.
_FAULTS_INJECTED = _metrics.REGISTRY.counter(
    "fault.injected", labels=("site",),
    help="Injected chaos firings by fault site (durable: survives "
         "discarded task attempts)")


class InjectedFault(RuntimeError):
    """The error raised by ``task.exception`` (and non-worker crashes)."""

    def __init__(self, site: str) -> None:
        super().__init__(f"injected fault at site {site!r}")
        self.site = site


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """One site's trigger schedule.

    Attributes
    ----------
    site:
        One of :data:`SITES`.
    times:
        Maximum number of firings (``None`` = unlimited).
    after:
        Zero-based hit index of the first eligible firing: ``after=2``
        skips the first two times the site is reached.
    rate:
        ``None`` fires on every eligible hit; otherwise each eligible
        hit fires with this probability, drawn from a ``random.Random``
        seeded with ``seed`` — reproducible by construction.
    seed:
        Seed for the per-site RNG (only consulted when ``rate`` is set).
    seconds:
        Sleep duration for ``task.timeout`` firings.
    """

    site: str
    times: int | None = 1
    after: int = 0
    rate: float | None = None
    seed: int = 0
    seconds: float = 60.0

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(f"unknown fault site {self.site!r}; "
                             f"expected one of {SITES}")
        if self.times is not None and self.times < 0:
            raise ValueError(f"times must be >= 0, got {self.times}")
        if self.after < 0:
            raise ValueError(f"after must be >= 0, got {self.after}")
        if self.rate is not None and not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {self.seconds}")

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse ``site[:key=value,...]``.

        Keys: ``times`` (int or ``inf``), ``after``, ``rate``, ``seed``,
        ``seconds``.  Example: ``task.timeout:times=1,seconds=0.2``.
        """
        site, _, params = text.strip().partition(":")
        kwargs: dict = {}
        if params:
            for item in params.split(","):
                key, eq, value = item.partition("=")
                key = key.strip()
                value = value.strip()
                if not eq or not value:
                    raise ValueError(
                        f"bad fault parameter {item!r} in {text!r}; "
                        f"expected key=value")
                if key == "times":
                    kwargs["times"] = (None if value == "inf"
                                       else int(value))
                elif key in ("after", "seed"):
                    kwargs[key] = int(value)
                elif key in ("rate", "seconds"):
                    kwargs[key] = float(value)
                else:
                    raise ValueError(
                        f"unknown fault parameter {key!r} in {text!r}; "
                        f"expected times/after/rate/seed/seconds")
        return cls(site=site.strip(), **kwargs)


class _SiteState:
    """Mutable trigger bookkeeping for one armed site."""

    __slots__ = ("spec", "hits", "fired", "rng")

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self.hits = 0
        self.fired = 0
        self.rng = random.Random(spec.seed)


class FaultPlan:
    """A set of armed sites with thread-safe schedule evaluation."""

    def __init__(self, specs: Iterator[FaultSpec] | list[FaultSpec]) -> None:
        self._lock = threading.Lock()
        self._sites: dict[str, _SiteState] = {}
        for spec in specs:
            if spec.site in self._sites:
                raise ValueError(
                    f"duplicate fault site {spec.site!r} in plan")
            self._sites[spec.site] = _SiteState(spec)

    @property
    def sites(self) -> tuple[str, ...]:
        return tuple(self._sites)

    def spec(self, site: str) -> FaultSpec | None:
        state = self._sites.get(site)
        return state.spec if state is not None else None

    def should_trigger(self, site: str) -> bool:
        """Advance ``site``'s hit counter; ``True`` when it fires now."""
        state = self._sites.get(site)
        if state is None:
            return False
        with self._lock:
            index = state.hits
            state.hits += 1
            spec = state.spec
            if index < spec.after:
                return False
            if spec.times is not None and state.fired >= spec.times:
                return False
            if spec.rate is not None and state.rng.random() >= spec.rate:
                return False
            state.fired += 1
            return True

    def stats(self) -> dict[str, tuple[int, int]]:
        """``{site: (hits, fired)}`` — for assertions in chaos tests."""
        with self._lock:
            return {site: (st.hits, st.fired)
                    for site, st in self._sites.items()}


def plan_from_specs(*specs: FaultSpec | str) -> FaultPlan:
    """Build a plan from specs or ``site:key=value,...`` strings."""
    return FaultPlan([spec if isinstance(spec, FaultSpec)
                      else FaultSpec.parse(spec) for spec in specs])


def plan_from_env(value: str | None = None) -> FaultPlan | None:
    """Parse the ``REPRO_FAULTS`` format: specs joined with ``;``.

    ``None`` (or an empty/whitespace value) arms nothing.  Example::

        REPRO_FAULTS="task.exception:times=1;numpy.import:times=1,after=2"
    """
    if value is None:
        value = os.environ.get(ENV_VAR)
    if value is None or not value.strip():
        return None
    return plan_from_specs(*[entry for entry in value.split(";")
                             if entry.strip()])


#: The armed plan, or ``None``.  Hot call sites read this through
#: :func:`check`; arming goes through :func:`inject` (or the
#: environment at import time).
_ACTIVE: FaultPlan | None = plan_from_env()

#: Arming generation: bumped every time :data:`_ACTIVE` is reassigned,
#: so persistent pool workers can tell a freshly armed plan from the
#: one they already installed (see :func:`install_plan_state`).
_GEN = 0

#: The generation this process last installed via
#: :func:`install_plan_state` (worker-side bookkeeping).
_INSTALLED_GEN: int | None = None


def armed() -> bool:
    """Whether any fault plan is currently armed."""
    return _ACTIVE is not None


def active_plan() -> FaultPlan | None:
    """The armed plan, or ``None``."""
    return _ACTIVE


def export_plan_state() -> tuple:
    """A picklable snapshot of the armed plan for pool workers.

    Returns ``(generation, specs, stats)`` — ``specs``/``stats`` are
    ``None`` when nothing is armed.  Shipped with every task submitted
    to a *persistent* process pool, whose workers were forked before
    the current ``inject()`` window and therefore did not inherit it.
    """
    plan = _ACTIVE
    if plan is None:
        return (_GEN, None, None)
    return (_GEN, tuple(state.spec for state in plan._sites.values()),
            plan.stats())


def install_plan_state(state: tuple) -> None:
    """Adopt an exported plan snapshot (idempotent per generation).

    Installing the same generation twice is a no-op, so one worker
    process running many tasks of the same arming window keeps a single
    plan whose trigger schedule advances across its tasks — exactly the
    per-worker semantics of a fork-inherited plan.  Each site's
    hit/fired counters are fast-forwarded to the parent's snapshot,
    mirroring what a fork at submit time would have copied.
    """
    global _ACTIVE, _INSTALLED_GEN
    gen, specs, stats = state
    if gen == _INSTALLED_GEN:
        return
    _INSTALLED_GEN = gen
    if specs is None:
        _ACTIVE = None
        return
    plan = FaultPlan(list(specs))
    if stats:
        for site, (hits, fired) in stats.items():
            site_state = plan._sites.get(site)
            if site_state is not None:
                site_state.hits = hits
                site_state.fired = fired
    _ACTIVE = plan


@contextmanager
def inject(*specs: FaultSpec | str, plan: FaultPlan | None = None):
    """Arm a fault plan for the ``with`` body (process-global).

    The new plan *shadows* whatever was armed before (including the
    ``REPRO_FAULTS`` ambient plan) so programmatic chaos tests stay
    deterministic under an env-armed run; the previous plan is restored
    on exit.  Yields the armed :class:`FaultPlan` so tests can assert
    on :meth:`FaultPlan.stats`.
    """
    global _ACTIVE, _GEN
    if plan is None:
        plan = plan_from_specs(*specs)
    elif specs:
        raise ValueError("pass either specs or a prebuilt plan, not both")
    outer = _ACTIVE
    _ACTIVE = plan
    _GEN += 1
    try:
        yield plan
    finally:
        _ACTIVE = outer
        _GEN += 1


def mark_worker_process() -> None:
    """Declare this process expendable (a fork-pool worker).

    Inside a marked process ``task.crash`` firings kill the process
    outright (``os._exit``), modelling a segfaulting worker; elsewhere
    they raise :class:`InjectedFault` so a crash injected under the
    serial or thread executor cannot take down the caller's process.
    """
    global WORKER_PROCESS
    WORKER_PROCESS = True


def check(site: str) -> None:
    """Fire ``site``'s fault action if an armed schedule says so.

    Disarmed cost is one module-global load plus an identity test.
    """
    plan = _ACTIVE
    if plan is None:
        return
    if not plan.should_trigger(site):
        return
    col = _obs.ACTIVE
    if col is not None:
        # Durable: the attempt this firing kills is discarded, but the
        # evidence that a fault was injected must not be.
        col.add_durable(f"faults.injected.{site}")
        _FAULTS_INJECTED.labels(site=site).inc_durable()
    spec = plan.spec(site)
    _fire(site, spec)


def triggered(site: str) -> bool:
    """Non-raising variant of :func:`check` for *corruption* sites.

    Advances the schedule and records the durable evidence counter
    exactly like :func:`check`, but returns ``True`` instead of raising
    so the call site can model a silent corruption (e.g. poisoning a
    cached artifact's validity basis at ``pipeline.stale_artifact``).
    """
    plan = _ACTIVE
    if plan is None:
        return False
    if not plan.should_trigger(site):
        return False
    col = _obs.ACTIVE
    if col is not None:
        col.add_durable(f"faults.injected.{site}")
        _FAULTS_INJECTED.labels(site=site).inc_durable()
    return True


def _fire(site: str, spec: FaultSpec) -> None:
    if site == "task.exception":
        raise InjectedFault(site)
    if site == "memory.pressure":
        raise MemoryError(f"injected fault at site {site!r}")
    if site == "numpy.import":
        raise ImportError(
            f"numpy is unavailable (injected fault at site {site!r})")
    if site in ("task.timeout", "server.request_timeout"):
        import time
        time.sleep(spec.seconds)
        return
    if site == "server.session_crash":
        raise InjectedFault(site)
    if site == "task.crash":
        if WORKER_PROCESS:
            os._exit(70)
        raise InjectedFault(site)
    if site == "pool.broken":
        from concurrent.futures.process import BrokenProcessPool
        raise BrokenProcessPool(
            f"injected fault at site {site!r}")
    if site == "io.parse_error":
        from repro.exceptions import FormatError
        raise FormatError(f"injected fault at site {site!r}")
    # Corruption sites (pipeline.stale_artifact, server.queue_overflow)
    # are normally consulted via :func:`triggered`; a plain check()
    # still fails loudly.
    raise InjectedFault(site)
