"""Resilient executors for the engine's independent per-level tasks.

Algorithm 1 performs ``D + 2`` independent passes over the graph (one per
clock-tree level, plus self-loop and primary-input passes).  The paper
parallelizes them across threads; in CPython the passes are pure-Python
CPU work, so true speedup requires processes.  Three strategies:

* ``"serial"`` — run in the calling thread (default; lowest overhead).
* ``"thread"`` — a thread pool.  Structure-faithful to the paper but
  GIL-bound in CPython; provided for API completeness and for workloads
  dominated by allocator/IO time.
* ``"process"`` — the persistent ``fork`` process pool of
  :mod:`repro.cppr.shard`.  Each task's argument tuple is pickled, so
  callers pass small descriptors or design tokens; the analyzer, its
  array core and the query's batched propagation reach workers through
  fork-time memory inheritance, mirroring the paper's shared-memory
  threading as closely as Python allows.

The Figure 6 thread-scaling experiment uses the process executor.

Fault tolerance: :func:`run_tasks` is a *scheduler*, not a thin pool
wrapper.  Each task gets an optional per-task ``task_timeout`` and up to
``max_retries`` re-runs with exponential backoff on its current rung;
worker crashes surface as a broken pool, and any rung-level failure
(timeout, broken pool, exhausted retries) moves the **failed/unfinished
tasks only** down the fallback ladder ``process -> thread -> serial``.
Because every task is a pure function of its arguments, re-running it on
a safer rung returns the identical result — the whole ladder is
bit-for-bit equivalent to a clean serial run.  The serial rung is the
floor: a task that still fails there re-raises its original exception
(with ``fallback=False`` an unfinished run raises
:class:`~repro.exceptions.ExecutionError` instead).  Fault events are
counted as ``faults.*`` / ``degrade.*`` on the active collector and
appended to the caller's ``events`` list.  Injected chaos (module
:mod:`repro.faults`) strikes inside :func:`_call_task` and at pool
creation, so the recovery paths are exercised deterministically in CI.

Observability: when a :mod:`repro.obs` collector is active, every task's
spans and counters are captured per task — in a detached thread state for
the serial/thread rungs, in a per-process sub-collector (shipped back
pickled as a profile dict) for the fork pool — and merged into the
caller's collector in **task order**, so counter totals and span sets
are identical across the three executors for the same workload.  Only a
task's *successful* attempt is merged; abandoned attempts leave no trace
beyond the ``faults.*`` counters.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as _WaitTimeout
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import Any, Callable, Sequence

from repro import faults
from repro.exceptions import AnalysisError, DeadlineExpired, ExecutionError
from repro.obs import collector as _obs
from repro.obs import metrics as _metrics
from repro.obs.collector import Collector
from repro.obs.profile import Profile

__all__ = ["available_executors", "check_deadline", "deadline_scope",
           "remaining_deadline", "run_tasks"]

#: Fault/degradation events, labeled by event name and the rung they
#: struck on (``degrade.executor`` is labeled by its target rung).
_SCHED_EVENTS = _metrics.REGISTRY.counter(
    "scheduler.event", labels=("event", "rung"),
    help="Resilient-scheduler fault/degradation events by name and rung")

#: Fallback rungs tried for each requested executor, safest last.
FALLBACK_LADDER = {
    "process": ("process", "thread", "serial"),
    "thread": ("thread", "serial"),
    "serial": ("serial",),
}

#: ``True`` only in forked worker processes (set by the pool initializer
#: in :mod:`repro.cppr.shard`, ``False`` everywhere else).  This is what
#: makes the nesting check genuinely about nesting: only a *worker* that
#: tries to start another fork pool is rejected.
_IN_FORK_WORKER = False


def available_executors() -> list[str]:
    """Executor names usable on this platform."""
    executors = ["serial", "thread"]
    if "fork" in multiprocessing.get_all_start_methods():
        executors.append("process")
    return executors


#: Per-thread cooperative deadline (absolute ``time.monotonic``
#: seconds).  Thread-local so concurrent server requests sharing one
#: process each carry their own budget.
_DEADLINE = threading.local()


@contextmanager
def deadline_scope(expires_at: float | None):
    """Arm a cooperative deadline for this thread's ``with`` body.

    ``expires_at`` is an absolute ``time.monotonic()`` timestamp
    (``None`` arms nothing).  Scopes nest with tightest-wins semantics;
    deadline-aware loops — :func:`run_tasks`'s serial rung and wave
    collection, the session's family replay — poll
    :func:`check_deadline` and abandon the run with
    :class:`~repro.exceptions.DeadlineExpired` once the budget is
    spent.  Partial work is discarded, never returned.
    """
    previous = getattr(_DEADLINE, "expires_at", None)
    if expires_at is None:
        effective = previous
    elif previous is None:
        effective = expires_at
    else:
        effective = min(previous, expires_at)
    _DEADLINE.expires_at = effective
    try:
        yield
    finally:
        _DEADLINE.expires_at = previous


def remaining_deadline() -> float | None:
    """Seconds left in this thread's deadline scope (``None`` = no cap)."""
    expires_at = getattr(_DEADLINE, "expires_at", None)
    if expires_at is None:
        return None
    return expires_at - time.monotonic()


def check_deadline() -> None:
    """Raise :class:`DeadlineExpired` when the ambient budget is spent."""
    remaining = remaining_deadline()
    if remaining is not None and remaining <= 0.0:
        raise DeadlineExpired(
            f"cooperative deadline expired {-remaining:.3f}s ago")


def _call_task(fn: Callable[..., Any], args: tuple) -> Any:
    """Run one task through the fault-injection gauntlet."""
    if faults.armed():
        faults.check("task.exception")
        faults.check("memory.pressure")
        faults.check("task.timeout")
        faults.check("task.crash")
    return fn(*args)


def _thread_entry(fn: Callable[..., Any], args: tuple,
                  col: Collector | None) -> tuple[Any, Any]:
    if col is None:
        return _call_task(fn, args), None
    with col.capture() as state:
        result = _call_task(fn, args)
    return result, state


def _record(events: list | None, col: Collector | None, name: str,
            **fields: Any) -> None:
    """Count one fault/degradation event and log it for the caller.

    Collected runs get two extras: a labeled ``scheduler.event`` metric
    sample and the collector's trace id stamped on the event dict (so
    exported traces and degradation records correlate).  Uncollected
    runs record the bare event dict, exactly as before.
    """
    if col is not None:
        col.add(name)
        _SCHED_EVENTS.labels(
            event=name,
            rung=str(fields.get("rung") or fields.get("target") or "-"),
        ).inc()
        if events is not None:
            events.append({"event": name, "trace": col.trace_id, **fields})
        return
    if events is not None:
        events.append({"event": name, **fields})


def _run_serial(fn, args_list, pending, results, payloads, done, col,
                max_retries, retry_backoff, events) -> None:
    """The ladder floor: inline execution with bounded retries.

    A task that exhausts its retries re-raises its original exception —
    there is no safer rung left to absorb it.
    """
    for i in pending:
        check_deadline()
        attempt = 0
        while True:
            try:
                if col is None:
                    results[i] = _call_task(fn, args_list[i])
                else:
                    with col.capture() as state:
                        results[i] = _call_task(fn, args_list[i])
                    payloads[i] = state
                done[i] = True
                break
            except Exception as exc:
                _record(events, col, "faults.task_error", task=i,
                        rung="serial", error=repr(exc))
                if attempt >= max_retries:
                    raise
                _record(events, col, "faults.retry", task=i,
                        rung="serial", attempt=attempt + 1)
                time.sleep(retry_backoff * (2 ** attempt))
                attempt += 1


def _collect_wave(rung, futures, order, results, payloads, done,
                  task_timeout, events, col
                  ) -> tuple[list[int], bool, BaseException | None]:
    """Wait on one wave of futures in task order.

    Returns ``(failed_task_indices, pool_broken, last_error)``.  Timed
    out and broken-pool tasks are left undone for the next rung; only
    tasks that raised an ordinary exception are candidates for retry on
    this rung.
    """
    failed: list[int] = []
    broken = False
    last_exc: BaseException | None = None
    for i in order:
        fut = futures[i]
        if broken:
            # The pool died; keep anything that already finished.
            if fut.done() and not fut.cancelled():
                exc = fut.exception()
                if exc is None:
                    results[i], payloads[i] = fut.result()
                    done[i] = True
            continue
        check_deadline()
        wait_timeout = task_timeout
        remaining = remaining_deadline()
        if remaining is not None:
            wait_timeout = (remaining if wait_timeout is None
                            else min(wait_timeout, remaining))
        try:
            value, payload = fut.result(timeout=wait_timeout)
        except _WaitTimeout:
            # A wait clamped by the ambient deadline is a deadline
            # expiry, not a hung task — abandon the run instead of
            # walking the ladder with no budget left.
            check_deadline()
            _record(events, col, "faults.task_timeout", task=i, rung=rung,
                    timeout=task_timeout)
            fut.cancel()
            continue
        except BrokenProcessPool as exc:
            _record(events, col, "faults.pool_broken", rung=rung,
                    error=repr(exc))
            broken = True
            last_exc = exc
            continue
        except Exception as exc:
            _record(events, col, "faults.task_error", task=i, rung=rung,
                    error=repr(exc))
            failed.append(i)
            last_exc = exc
            continue
        results[i] = value
        payloads[i] = payload
        done[i] = True
    return failed, broken, last_exc


def _run_pool_rung(rung, fn, args_list, pending, results, payloads, done,
                   col, workers, task_timeout, max_retries, retry_backoff,
                   events) -> BaseException | None:
    """Run ``pending`` tasks on a thread pool or the shared fork pool.

    Marks completed tasks done; leaves failed/timed-out/orphaned tasks
    undone for the next rung.  Never raises on task or pool failure —
    the returned exception (if any) is the last failure observed, kept
    for error chaining if the ladder runs out.

    The process rung submits per-task argument tuples to the persistent
    :mod:`repro.cppr.shard` pool, holding ``shard.POOL_LOCK`` until its
    last result.  A broken pool is retired through
    :func:`repro.cppr.shard.shutdown_pool`; the next process rung forks
    a fresh one.
    """
    from repro.cppr import shard

    if workers is None:
        workers = min(len(pending), os.cpu_count() or 1)
    workers = max(1, workers)

    if rung == "process":
        try:
            faults.check("pool.broken")
        except BrokenProcessPool as exc:
            _record(events, col, "faults.pool_broken", rung=rung,
                    error=repr(exc))
            shard.shutdown_pool()
            return exc
        if _IN_FORK_WORKER:
            raise AnalysisError(
                "nested process-executor runs are not supported: a fork "
                "worker cannot start another fork pool")
        # Held until the rung's last result, so another thread's
        # re-fork or retire cannot pull the pool from under its tasks.
        shard.POOL_LOCK.acquire()
    else:
        pool = ThreadPoolExecutor(max_workers=workers)

    last_exc: BaseException | None = None
    try:
        if rung == "process":
            try:
                pool = shard.ensure_pool(workers)
            except Exception as exc:
                _record(events, col, "faults.pool_broken", rung=rung,
                        error=repr(exc))
                shard.shutdown_pool()
                return exc
            plan_state = faults.export_plan_state()

            def submit(i: int) -> Future:
                return pool.submit(shard.worker_entry, fn, args_list[i],
                                   col is not None, plan_state)
        else:
            def submit(i: int) -> Future:
                return pool.submit(_thread_entry, fn, args_list[i], col)

        to_run = list(pending)
        attempt = 0
        while to_run:
            try:
                futures = {i: submit(i) for i in to_run}
            except BrokenProcessPool as exc:
                _record(events, col, "faults.pool_broken", rung=rung,
                        error=repr(exc))
                shard.shutdown_pool()
                return exc
            failed, broken, exc = _collect_wave(
                rung, futures, to_run, results, payloads, done,
                task_timeout, events, col)
            last_exc = exc or last_exc
            if broken:
                shard.shutdown_pool()
                break
            if not failed:
                break
            if attempt >= max_retries:
                break
            for i in failed:
                _record(events, col, "faults.retry", task=i, rung=rung,
                        attempt=attempt + 1)
            time.sleep(retry_backoff * (2 ** attempt))
            attempt += 1
            to_run = failed
    finally:
        if rung == "process":
            shard.POOL_LOCK.release()
        else:
            pool.shutdown(wait=False, cancel_futures=True)
    return last_exc


def run_tasks(fn: Callable[..., Any], args_list: Sequence[tuple],
              executor: str = "serial",
              workers: int | None = None, *,
              task_timeout: float | None = None,
              max_retries: int = 0,
              retry_backoff: float = 0.05,
              fallback: bool = True,
              events: list | None = None) -> list[Any]:
    """Apply ``fn`` to each argument tuple, preserving input order.

    ``fn`` must be a module-level (picklable-by-reference) callable when
    the process executor is used, its arguments small and picklable
    (they are pickled per task), and it must be a *pure* function of its
    arguments: the scheduler re-runs tasks after faults, so repeated
    execution must be harmless and deterministic.

    Resilience knobs (all optional; defaults reproduce the plain
    pool-mapping behaviour):

    ``task_timeout``
        Seconds to wait for each pooled task's result before declaring
        it hung and re-running it on the next rung.  ``None`` waits
        forever.  Not enforceable on the serial rung, which runs tasks
        inline.
    ``max_retries`` / ``retry_backoff``
        Bounded same-rung re-runs of tasks that raised, sleeping
        ``retry_backoff * 2**attempt`` between waves.
    ``fallback``
        Walk the ``process -> thread -> serial`` ladder for tasks a
        rung could not finish.  With ``False``, an unfinished run
        raises :class:`~repro.exceptions.ExecutionError` (strict mode).
    ``events``
        A caller-owned list; every fault/degradation event is appended
        as a dict (``{"event": "faults.task_timeout", "task": 3, ...}``).
    """
    if executor not in FALLBACK_LADDER:
        raise AnalysisError(
            f"unknown executor {executor!r}; expected one of "
            f"{available_executors()}")
    if (executor == "process"
            and "fork" not in multiprocessing.get_all_start_methods()):
        raise AnalysisError(
            "the 'process' executor requires fork start method "
            "support; use 'serial' or 'thread' on this platform")
    n = len(args_list)
    if n == 0:
        return []
    col = _obs.ACTIVE

    remaining = remaining_deadline()
    if remaining is not None:
        check_deadline()
        # The per-task wait may never outlive the request's budget.
        task_timeout = (remaining if task_timeout is None
                        else min(task_timeout, remaining))

    # Fast path: a clean serial run with no collector is the common
    # production configuration; keep it a bare loop.
    if (executor == "serial" and col is None and max_retries == 0
            and remaining is None and not faults.armed()):
        return [fn(*args) for args in args_list]

    results: list[Any] = [None] * n
    payloads: list[Any] = [None] * n
    done = [False] * n

    rungs = FALLBACK_LADDER[executor] if fallback else (executor,)
    last_exc: BaseException | None = None
    previous = executor
    for rung in rungs:
        pending = [i for i in range(n) if not done[i]]
        if not pending:
            break
        if rung != previous:
            _record(events, col, "degrade.executor",
                    source=previous, target=rung, tasks=len(pending))
            previous = rung
        if rung == "serial":
            _run_serial(fn, args_list, pending, results, payloads, done,
                        col, max_retries, retry_backoff, events)
        else:
            exc = _run_pool_rung(rung, fn, args_list, pending, results,
                                 payloads, done, col, workers,
                                 task_timeout, max_retries, retry_backoff,
                                 events)
            last_exc = exc or last_exc

    remaining = [i for i in range(n) if not done[i]]
    if remaining:
        raise ExecutionError(
            f"{len(remaining)} of {n} tasks failed on the "
            f"{'/'.join(rungs)} executor"
            + ("" if fallback else " (fallback disabled)")
        ) from last_exc

    if col is not None:
        for payload in payloads:
            if payload is None:
                continue
            if isinstance(payload, dict):
                col.absorb(Profile.from_dict(payload))
            else:
                col.absorb_state(payload)
    return results
