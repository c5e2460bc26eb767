"""The process transport: a fork pool fed descriptors.

Every process-rung task of :func:`repro.cppr.parallel.run_tasks` goes
to the one shared ``fork`` pool (:func:`ensure_pool`), whose workers
read only what they inherited at fork.  Task arguments are pickled per
task, so nothing heavyweight crosses the pipe:

* the parent *publishes* each design once — a token for the analyzer,
  resolved in workers through fork inheritance of :data:`_DESIGNS`;
* per query, :func:`open_query` registers the query's batched
  propagation in :data:`_QUERY_BATCHES`, and each candidate-family task
  is reduced to a tiny picklable :class:`FamilyDescriptor` — design
  token, the values version of the analyzer's array core, the batch
  key (every family but the output family reads the batch) and the
  ``(task, k, mode, ...)`` scalars.

The pool forks after the sweep: registering a batch for the process
executor moves :data:`_FORK_SEQ`, so :func:`ensure_pool` forks workers
that inherit the design, its core and the batch, and
:meth:`ShardContext.close` retires that pool.  Queries with no batch
(the scalar backend,
:class:`~repro.baselines.pair_enum.PairEnumTimer`) keep reusing the
persistent pool, which re-forks only when the worker count changes, the
pool breaks, or a design is published, or gains its array core, after
the pool forked.

Because a persistent pool's workers were forked before the current
``faults.inject()`` window, every submitted task also carries the armed
plan's exported state (:func:`repro.faults.export_plan_state`), which
workers install idempotently per arming generation — chaos schedules
keep striking inside pooled workers exactly like they strike forked
ones.

Stale state is detected, never served: resolution raises
:class:`~repro.exceptions.StaleStateError` when a process lacks the
descriptor's design or batch, or holds the core at another values
version.  The resilient scheduler treats it as an ordinary task
failure and walks the ``process -> thread -> serial`` ladder, whose
lower rungs resolve the same descriptors from the parent's live
objects — reports stay bit-for-bit identical.

Observability contract: descriptor resolution emits no spans and no
counters, and it runs under every executor (serial and thread resolve
descriptors too), keeping ``Profile.counters`` and span sets
executor-independent.
"""

from __future__ import annotations

import atexit
import multiprocessing
import threading
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any

from repro import faults
from repro.exceptions import StaleStateError
from repro.obs.collector import Collector, collecting

__all__ = ["FamilyDescriptor", "ShardContext", "ensure_pool",
           "open_query", "publish_design", "resolve_design",
           "run_family_descriptor", "shutdown_pool", "worker_entry"]

# ----------------------------------------------------------------------
# Design and batch registries (the parent registers; workers resolve
# through fork-inherited module state)
# ----------------------------------------------------------------------

#: token -> weakref to the published analyzer.  Weak on purpose: the
#: registry must not keep dead analyzers (and their graphs) alive.
_DESIGNS: dict[str, Any] = {}

#: Bumped whenever workers need state they can only inherit at fork (a
#: design published or gaining its core, a batch for the process
#: executor); the pool snapshots it at fork so :func:`ensure_pool` knows
#: when to re-fork.
_FORK_SEQ = 0

_DESIGN_LOCK = threading.Lock()

#: batch key -> the query's live BatchedLevels.  The parent resolves
#: here on every rung; a worker sees the entries registered before its
#: pool forked.
_QUERY_BATCHES: dict[str, Any] = {}

_BATCH_SEQ = 0


def publish_design(analyzer) -> str:
    """Register ``analyzer`` for descriptor resolution; returns a token.

    Idempotent per analyzer (the token is cached on the instance).  The
    analyzer itself never crosses the pipe — workers resolve the token
    against the fork-inherited :data:`_DESIGNS` mirror, and
    :func:`ensure_pool` re-forks the pool when it was forked before this
    registration, or before the analyzer's array core was built (such
    workers could not serve array tasks).
    """
    global _FORK_SEQ
    has_core = getattr(analyzer.graph, "_core_arrays", None) is not None
    token = getattr(analyzer, "_shard_token", None)
    if (token is not None and token in _DESIGNS
            and (analyzer._shard_had_core or not has_core)):
        return token
    with _DESIGN_LOCK:
        if token is None or token not in _DESIGNS:
            token = f"design-{_FORK_SEQ + 1}"
            _DESIGNS[token] = weakref.ref(
                analyzer,
                lambda _ref, _token=token: _DESIGNS.pop(_token, None))
        _FORK_SEQ += 1
    analyzer._shard_token = token
    analyzer._shard_had_core = has_core
    return token


def resolve_design(token: str):
    """The analyzer published under ``token`` in this process."""
    ref = _DESIGNS.get(token)
    analyzer = ref() if ref is not None else None
    if analyzer is None:
        # This worker was forked before the design was published (the
        # parent recycles the pool on publish, but a race or a manual
        # pool is possible) — fail the task; the ladder's lower rungs
        # resolve from the parent's live registry.
        raise StaleStateError(
            f"design {token!r} is not available in this process")
    return analyzer


@dataclass(frozen=True, slots=True)
class FamilyDescriptor:
    """Everything one candidate-family task needs, in a few hundred bytes.

    This is the only thing pickled into pool workers per task.  The
    heavyweight state is what the resolving process holds: ``design``
    and ``batch_key`` name entries of the (fork-inherited) registries,
    and the analyzer's array core must be at ``values_version``
    (``None`` when the parent had no core when the query opened).
    """

    design: str
    values_version: int | None
    batch_key: str | None
    task: tuple
    k: int
    mode: Any
    heap_capacity: int | None
    backend: str
    strict: bool
    #: Corner label for observability; ``"-"`` when the engine has no
    #: corners configured.  Multi-corner queries register one batch key
    #: per corner, so the label also tells a human which corner's state
    #: a descriptor names.
    corner: str = "-"


class ShardContext:
    """One query's registered state: descriptors out, cleanup on close."""

    __slots__ = ("token", "values_version", "batch_key",
                 "_forked_for_batch")

    def __init__(self, token: str, values_version: int | None,
                 batch_key: str | None, forked_for_batch: bool) -> None:
        self.token = token
        self.values_version = values_version
        self.batch_key = batch_key
        self._forked_for_batch = forked_for_batch

    def descriptor(self, task: tuple, k: int, mode, heap_capacity,
                   backend: str, strict: bool,
                   corner: str = "-") -> FamilyDescriptor:
        use_batch = self.batch_key is not None and task[0] != "output"
        return FamilyDescriptor(
            design=self.token,
            values_version=self.values_version,
            batch_key=self.batch_key if use_batch else None,
            task=task, k=k, mode=mode, heap_capacity=heap_capacity,
            backend=backend, strict=strict, corner=corner)

    def close(self) -> None:
        """Retire the query's batch (idempotent): its registry entry and
        the pool forked to inherit it."""
        if self.batch_key is not None:
            _QUERY_BATCHES.pop(self.batch_key, None)
        if self._forked_for_batch:
            shutdown_pool()


def open_query(analyzer, batch, *, publish_batch: bool) -> ShardContext:
    """Register one query's state and return its :class:`ShardContext`.

    ``batch`` is the parent's :class:`~repro.core.batched.BatchedLevels`
    (or ``None``); ``publish_batch`` is set for the process executor,
    whose workers must inherit the batch at fork (thread and serial
    rungs read the live object).  Under it the pool re-forks before the
    query's tasks run, and :meth:`ShardContext.close` retires it.
    """
    global _BATCH_SEQ, _FORK_SEQ
    token = publish_design(analyzer)
    core = getattr(analyzer.graph, "_core_arrays", None)
    batch_key = None
    forked_for_batch = batch is not None and publish_batch
    if batch is not None:
        with _DESIGN_LOCK:
            _BATCH_SEQ += 1
            batch_key = f"batch-{_BATCH_SEQ}"
            _QUERY_BATCHES[batch_key] = batch
            if forked_for_batch:
                _FORK_SEQ += 1
    return ShardContext(token,
                        core.values.version if core is not None else None,
                        batch_key, forked_for_batch)


# ----------------------------------------------------------------------
# Resolution (any process, any executor)
# ----------------------------------------------------------------------

def _check_values(analyzer, desc: FamilyDescriptor) -> None:
    """Fail unless this process's core is at the descriptor's version.

    A descriptor minted without a core accepts whatever this process
    holds (no core on the scalar backend).  Otherwise a missing core, or
    one edited since the descriptor was minted, raises — the task then
    re-runs on a rung that reads the parent's live core.
    """
    if desc.values_version is None:
        return
    core = getattr(analyzer.graph, "_core_arrays", None)
    held = core.values.version if core is not None else None
    if held != desc.values_version:
        raise StaleStateError(
            f"design {desc.design!r} holds values version {held} in this "
            f"process, but the descriptor was minted at version "
            f"{desc.values_version}")


def run_family_descriptor(desc: FamilyDescriptor):
    """Resolve ``desc`` and run its candidate pass (any executor).

    Module-level and unary so it pickles by reference with one small
    argument.  Returns ``(paths, degradation_events)`` exactly like
    :func:`repro.cppr.engine._run_family_resilient`, which it wraps.
    """
    analyzer = resolve_design(desc.design)
    _check_values(analyzer, desc)
    batch = None
    if desc.batch_key is not None:
        batch = _QUERY_BATCHES.get(desc.batch_key)
        if batch is None:
            raise StaleStateError(
                f"batch {desc.batch_key!r} is not available in this "
                f"process")
    from repro.cppr.engine import _run_family_resilient
    return _run_family_resilient(analyzer, desc.task, desc.k, desc.mode,
                                 desc.heap_capacity, desc.backend, batch,
                                 desc.strict)


# ----------------------------------------------------------------------
# The shared fork pool
# ----------------------------------------------------------------------

_POOL: ProcessPoolExecutor | None = None
_POOL_WORKERS = 0
_POOL_SEQ = -1
#: Guards every pool (re)creation and teardown.  A process rung of
#: :func:`repro.cppr.parallel.run_tasks` holds it from choosing the pool
#: to its last result, so concurrent process queries from several
#: threads take turns instead of retiring each other's pool.
POOL_LOCK = threading.RLock()


def _worker_init() -> None:
    """Runs in every pool worker at spawn (fork) time."""
    from repro.cppr import parallel as _parallel
    _parallel._IN_FORK_WORKER = True
    faults.mark_worker_process()


def worker_entry(fn, args: tuple, collect: bool, plan_state: tuple):
    """Run one task in a pool worker.

    Installs the parent's exported fault plan first — a worker forked
    before the current ``inject()`` window would otherwise never see its
    schedule.  When the parent was collecting, the task runs under a
    fresh sub-collector (replacing the fork-inherited parent collector)
    and the profile ships back as a dict for the parent to merge.
    """
    from repro.cppr import parallel as _parallel
    faults.install_plan_state(plan_state)
    if not collect:
        return _parallel._call_task(fn, args), None
    with collecting(Collector()) as sub:
        result = _parallel._call_task(fn, args)
    return result, sub.profile().to_dict()


def ensure_pool(workers: int) -> ProcessPoolExecutor:
    """The shared fork pool, (re)created as needed.

    Recycled when the worker count changes or workers need state they
    can only inherit at fork (:data:`_FORK_SEQ` moved since the pool
    forked); otherwise the same processes serve query after query.
    """
    global _POOL, _POOL_WORKERS, _POOL_SEQ
    with POOL_LOCK:
        if _POOL is not None and (_POOL_WORKERS != workers
                                  or _POOL_SEQ != _FORK_SEQ):
            _POOL.shutdown(wait=False, cancel_futures=True)
            _POOL = None
        if _POOL is None:
            context = multiprocessing.get_context("fork")
            _POOL = ProcessPoolExecutor(max_workers=workers,
                                        mp_context=context,
                                        initializer=_worker_init)
            _POOL_WORKERS = workers
            _POOL_SEQ = _FORK_SEQ
        return _POOL


def shutdown_pool() -> None:
    """Tear down the shared pool (a broken pool, interpreter exit, the
    close of a query whose batch the pool inherited, tests)."""
    global _POOL
    with POOL_LOCK:
        pool, _POOL = _POOL, None
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(shutdown_pool)
