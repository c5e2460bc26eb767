"""The process transport: one persistent fork pool fed descriptors.

Every process-rung task of :func:`repro.cppr.parallel.run_tasks` goes
to one persistent ``fork`` pool (:func:`ensure_pool`), created once and
reused across queries — recycled only when the worker count changes,
the pool breaks, or workers lack state they can only inherit at fork (a
design published, or gaining its array core, after the pool forked).
Task arguments are pickled per task, so nothing heavyweight crosses the
pipe:

* the parent *publishes* each design once — a token for the analyzer,
  resolved in workers through fork inheritance of :data:`_DESIGNS`;
* per query, each candidate-family task is reduced to a tiny picklable
  :class:`FamilyDescriptor` — design token, the ``(task, k, mode, ...)``
  scalars and, on the array backend with shared memory up
  (:func:`repro.core.shm.available`), the
  :class:`~repro.core.shm.BufferLayout` of the
  :class:`~repro.core.arrays.CoreValues` segment
  (:meth:`~repro.core.arrays.CoreArrays.share_values`) plus expected
  version, and of the query's batched-propagation segment;
* workers attach the segments **lazily and cache the mapping**, so the
  per-task wire cost is a few hundred bytes regardless of design size.

A descriptor that names no segment (the scalar backend, no shared
memory, or a failed publish) is resolved against the analyzer — array
core included — that the worker inherited at fork.  The query's batch
then reaches workers the same way: :func:`open_query` registers it and
forces a re-fork, and :meth:`ShardContext.close` retires that pool.

Because a persistent pool's workers were forked long before the current
``faults.inject()`` window, every submitted task also carries the armed
plan's exported state (:func:`repro.faults.export_plan_state`), which
workers install idempotently per arming generation — chaos schedules
keep striking inside pooled workers exactly like they strike forked
ones.

Resolution failures (:class:`~repro.exceptions.ShmAttachError` /
:class:`~repro.exceptions.ShmStaleError`) are ordinary task failures:
the resilient scheduler retries and then walks the
``process -> thread -> serial`` ladder, whose lower rungs resolve the
same descriptors from the parent's live objects — reports stay
bit-for-bit identical.

Observability contract: descriptor resolution emits **no spans** and
exactly one ``scheduler.event{event=shm_attach}`` sample per task that
names a values segment, on every executor (serial and thread resolve
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
from repro.core import shm
from repro.exceptions import ShmAttachError
from repro.obs import metrics as _metrics
from repro.obs.collector import Collector, collecting

__all__ = ["FamilyDescriptor", "ShardContext", "ensure_pool",
           "handle_broken_pool", "open_query", "publish_design",
           "resolve_design", "run_family_descriptor", "shutdown_pool",
           "worker_entry"]

#: Re-declares the scheduler's labeled event metric (registration is
#: idempotent) so resolution can stamp its per-task attach sample.
_SCHED_EVENTS = _metrics.REGISTRY.counter(
    "scheduler.event", labels=("event", "rung"),
    help="Resilient-scheduler fault/degradation events by name and rung")

# ----------------------------------------------------------------------
# Design registry (parent publishes; workers resolve via fork-inherited
# module state)
# ----------------------------------------------------------------------

#: token -> weakref to the published analyzer.  Weak on purpose: the
#: registry must not keep dead analyzers (and their graphs) alive.
_DESIGNS: dict[str, Any] = {}

#: Bumped whenever workers need state they can only inherit at fork (a
#: design published or gaining its core, a batch without a segment); the
#: pool snapshots it at fork so :func:`ensure_pool` knows when to re-fork.
_FORK_SEQ = 0

_DESIGN_LOCK = threading.Lock()

# ----------------------------------------------------------------------
# Per-query batch registry
# ----------------------------------------------------------------------

#: Parent-side: batch key -> live BatchedLevels (serial/thread rungs and
#: the owner process resolve here, no shared memory involved).
_QUERY_BATCHES: dict[str, Any] = {}

#: Worker-side: batch key -> (BatchedLevels, segment name) rebuilt from
#: an attached segment.  Bounded: a multi-corner query publishes one
#: batch key per corner and workers interleave corners, so the cache
#: keeps the most recent :data:`_WORKER_BATCH_CAP` attachments and
#: releases older ones (previous queries' keys age out naturally).
_WORKER_BATCHES: dict[str, tuple[Any, str]] = {}

#: Enough for every corner of a reasonably sized CornerSet to stay
#: attached for the whole query.
_WORKER_BATCH_CAP = 16

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
        raise ShmAttachError(
            f"design {token!r} is not available in this process")
    return analyzer


@dataclass(frozen=True, slots=True)
class FamilyDescriptor:
    """Everything one candidate-family task needs, in a few hundred bytes.

    This is the only thing pickled into pool workers per task.  The
    heavyweight state is reached indirectly: ``design`` through the
    fork-inherited registry, ``values_layout`` / ``batch_layout``
    through shared-memory attach (validated against
    ``values_version``) or, when ``None``, through the core and batch
    registry the worker inherited at fork.
    """

    design: str
    values_layout: shm.BufferLayout | None
    values_version: int
    batch_key: str | None
    batch_layout: shm.BufferLayout | None
    task: tuple
    k: int
    mode: Any
    heap_capacity: int | None
    backend: str
    strict: bool
    #: Corner label for observability; ``"-"`` when the engine has no
    #: corners configured.  Multi-corner queries publish one values
    #: segment and one batch key per corner, so the label also tells a
    #: human which plane a descriptor belongs to.
    corner: str = "-"


class ShardContext:
    """One query's published plane: descriptors out, cleanup on close.

    ``error`` holds the exception of a failed publish (the context then
    names no segments); ``None`` otherwise.
    """

    __slots__ = ("token", "values_layout", "values_version", "batch_key",
                 "batch_layout", "error", "_forked_for_batch")

    def __init__(self, token: str, values_layout, values_version: int,
                 batch_key: str | None, batch_layout, error,
                 forked_for_batch: bool) -> None:
        self.token = token
        self.values_layout = values_layout
        self.values_version = values_version
        self.batch_key = batch_key
        self.batch_layout = batch_layout
        self.error = error
        self._forked_for_batch = forked_for_batch

    def descriptor(self, task: tuple, k: int, mode, heap_capacity,
                   backend: str, strict: bool,
                   corner: str = "-") -> FamilyDescriptor:
        use_batch = self.batch_key is not None and task[0] == "level"
        return FamilyDescriptor(
            design=self.token,
            values_layout=self.values_layout,
            values_version=self.values_version,
            batch_key=self.batch_key if use_batch else None,
            batch_layout=self.batch_layout if use_batch else None,
            task=task, k=k, mode=mode, heap_capacity=heap_capacity,
            backend=backend, strict=strict, corner=corner)

    def close(self) -> None:
        """Retire the query's batch (idempotent): its registry entry,
        its segment, and the pool forked to inherit it."""
        if self.batch_key is not None:
            _QUERY_BATCHES.pop(self.batch_key, None)
        if self.batch_layout is not None:
            shm.REGISTRY.release(self.batch_layout.segment)
        if self._forked_for_batch:
            shutdown_pool()


def open_query(analyzer, batch, *, publish_batch: bool) -> ShardContext:
    """Publish one query's plane and return its :class:`ShardContext`.

    ``batch`` is the parent's :class:`~repro.core.batched.BatchedLevels`
    (or ``None``); ``publish_batch`` is set for the process executor,
    whose workers must reach the batch from another process (thread and
    serial rungs read the live object).  With shared memory up and the
    analyzer's array core built, the values segment is published once
    per analyzer (idempotent, survives across queries — in-place ECO
    updates just bump its version slot), and under ``publish_batch`` the
    batch matrices are copied into a per-query segment.  A batch left
    without a segment under ``publish_batch`` is inherited instead: the
    pool re-forks before the query's tasks run, and :meth:`close`
    retires it.  A failed publish does not raise; the context names no
    segment and keeps the exception in ``error``.
    """
    global _BATCH_SEQ, _FORK_SEQ
    token = publish_design(analyzer)
    core = getattr(analyzer.graph, "_core_arrays", None)
    values_layout = batch_layout = error = None
    if core is not None and shm.available():
        try:
            values_layout = core.share_values()
            if batch is not None and publish_batch:
                batch_layout, _views = shm.REGISTRY.publish(
                    "batch",
                    {"time0": batch.time0, "from0": batch.from0,
                     "group0": batch.group0, "time1": batch.time1,
                     "from1": batch.from1, "group1": batch.group1,
                     "cost0": batch.cost0},
                    meta={"num_levels": batch.num_levels,
                          "mode": batch.mode.value,
                          "seed_counts": tuple(batch.seed_counts)})
        except OSError as exc:
            values_layout, error = None, exc
    batch_key = None
    forked_for_batch = (batch is not None and publish_batch
                        and batch_layout is None)
    if batch is not None:
        with _DESIGN_LOCK:
            _BATCH_SEQ += 1
            batch_key = f"batch-{_BATCH_SEQ}"
            _QUERY_BATCHES[batch_key] = batch
            if forked_for_batch:
                _FORK_SEQ += 1
    return ShardContext(token, values_layout,
                        core.values.version if core is not None else 0,
                        batch_key, batch_layout, error, forked_for_batch)


# ----------------------------------------------------------------------
# Worker-side resolution
# ----------------------------------------------------------------------

def _resolve_values(analyzer, desc: FamilyDescriptor):
    """The analyzer's core at the descriptor's values version.

    A descriptor naming no values segment gets this process's own core
    (``None`` on the scalar backend) — the owner's, or the one a worker
    inherited at fork.  Otherwise every path revalidates the segment
    version (and, off the owner process, runs the ``shm.attach`` /
    ``shm.stale`` chaos gates) via
    :meth:`~repro.core.shm.SegmentRegistry.views`.  When this process's
    cached core is already bound to the right segment at the right
    version — always true in the owner process, and true in workers
    until an ECO bumps the slot — the core is reused as-is; otherwise
    the value columns are rebound to the validated views and *fresh*
    list mirrors are built, so a stale fork-inherited mirror can never
    be served.
    """
    graph = analyzer.graph
    core = getattr(graph, "_core_arrays", None)
    layout = desc.values_layout
    if layout is None:
        return core
    from repro.core.arrays import CoreArrays, CoreValues

    if core is None:
        raise ShmAttachError(
            f"design {desc.design!r} has no core arrays in this process")
    _SCHED_EVENTS.labels(event="shm_attach", rung="-").inc()
    views = shm.REGISTRY.views(layout,
                               expected_version=desc.values_version)
    vals = core.values
    if (vals.shm_layout is not None
            and vals.shm_layout.segment == layout.segment
            and vals.version == desc.values_version):
        return core
    fresh = CoreValues(views["edge_early"], views["edge_late"],
                       views["fanin_early"], views["fanin_late"])
    fresh._version = desc.values_version
    fresh.shm_layout = layout
    refreshed = CoreArrays(graph, structure=core.structure, values=fresh)
    graph._core_arrays = refreshed
    return refreshed


def _resolve_batch(analyzer, core, desc: FamilyDescriptor):
    """The query's :class:`BatchedLevels` in this process.

    Owner process (and workers forked after :func:`open_query`
    registered it): the live object from :data:`_QUERY_BATCHES`.  Other
    pool workers: rebuilt from the attached segment — the six state
    matrices and the cost matrix map in place; the grouping matrix,
    groupings, seed counts and the fanin columns are rederived from the
    (fork-inherited) clock tree and the resolved core.  Cached per
    batch key in a small bounded map (multi-corner queries keep one
    attachment per corner alive at once); the oldest attachment is
    released when the cap is hit.
    """
    from repro.core.batched import BatchedLevels, _build_groupings
    from repro.core.grouping import group_matrix
    from repro.sta.modes import AnalysisMode

    batch = _QUERY_BATCHES.get(desc.batch_key)
    if batch is not None:
        return batch
    cached = _WORKER_BATCHES.get(desc.batch_key)
    if cached is not None:
        return cached[0]
    layout = desc.batch_layout
    if layout is None:
        raise ShmAttachError(
            f"batch {desc.batch_key!r} has no segment to attach")
    views = shm.REGISTRY.views(layout)
    meta = layout.meta_dict
    mode = AnalysisMode.coerce(meta["mode"])
    num_levels = int(meta["num_levels"])
    seed_counts = list(meta["seed_counts"])
    tree = analyzer.clock_tree
    gm, om = group_matrix(tree, analyzer.graph.num_ffs)
    groupings = _build_groupings(tree, gm, om)
    delay_list = (core.fanin_late_list if mode.is_setup
                  else core.fanin_early_list)
    batch = BatchedLevels(
        mode, num_levels, groupings, seed_counts, gm,
        views["time0"], views["from0"], views["group0"],
        views["time1"], views["from1"], views["group1"],
        views["cost0"], core.fanin_ptr_list, core.fanin_src_list,
        delay_list)
    while len(_WORKER_BATCHES) >= _WORKER_BATCH_CAP:
        old_key = next(iter(_WORKER_BATCHES))
        _old_batch, old_segment = _WORKER_BATCHES.pop(old_key)
        shm.REGISTRY.release(old_segment)
    _WORKER_BATCHES[desc.batch_key] = (batch, layout.segment)
    return batch


def run_family_descriptor(desc: FamilyDescriptor):
    """Resolve ``desc`` and run its candidate pass (any executor).

    Module-level and unary so it pickles by reference with one small
    argument.  Returns ``(paths, degradation_events)`` exactly like
    :func:`repro.cppr.engine._run_family_resilient`, which it wraps.
    """
    analyzer = resolve_design(desc.design)
    core = _resolve_values(analyzer, desc)
    batch = None
    if desc.batch_key is not None:
        batch = _resolve_batch(analyzer, core, desc)
    from repro.cppr.engine import _run_family_resilient
    return _run_family_resilient(analyzer, desc.task, desc.k, desc.mode,
                                 desc.heap_capacity, desc.backend, batch,
                                 desc.strict)


# ----------------------------------------------------------------------
# The persistent fork pool
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
    forked); otherwise the same processes serve query after query —
    the whole point of descriptor sharding.
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


def handle_broken_pool() -> None:
    """Recover from a broken shared pool.

    Drops the pool (a fresh one forks on the next process-rung use) and
    eagerly releases the ephemeral batch segments so a crash never
    leaks ``/dev/shm`` entries.  Values segments are left alone — the
    parent still owns and serves them; their lifetime is tied to the
    core objects (finalizers) and the exit sweep.
    """
    shutdown_pool()
    shm.REGISTRY.sweep_kind("batch")


def shutdown_pool() -> None:
    """Tear down the shared pool (interpreter exit, the close of a query
    whose batch the pool inherited, tests)."""
    global _POOL
    with POOL_LOCK:
        pool, _POOL = _POOL, None
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(shutdown_pool)
