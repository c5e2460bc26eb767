"""The CPPR engine (paper Algorithm 1).

:class:`CpprEngine` orchestrates the whole analysis: it generates top-k
path candidates for every clock-tree level (Definitions 3-4), for
self-loops (Definition 5) and for primary inputs (Definition 6) —
``D + 2`` independent passes, optionally in parallel — then reduces the
``<= k(D+2)`` candidates to the global top-``k`` post-CPPR critical paths
with ``selectTopPaths`` (Algorithm 6).

Example::

    engine = CpprEngine(analyzer)
    for path in engine.top_paths(k=10, mode="setup"):
        print(path.slack, [analyzer.graph.pin_name(p) for p in path.pins])
"""

from __future__ import annotations

import os
import time
import warnings
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.corners import CornerSet

from repro.core import resolve_backend, safer_backend
from repro.cppr.level_paths import paths_at_level
from repro.cppr.output_paths import output_paths
from repro.cppr.parallel import available_executors, run_tasks
from repro.cppr.pi_paths import primary_input_paths
from repro.cppr.select import select_top_paths
from repro.cppr.selfloop_paths import self_loop_paths
from repro.cppr.types import TimingPath
from repro.exceptions import (AnalysisError, DegradedResultWarning,
                              ExecutionError, ReproError)
from repro.obs import collector as _obs
from repro.obs import metrics as _metrics
from repro.obs.collector import collecting
from repro.obs.profile import Profile
from repro.sta.modes import AnalysisMode
from repro.sta.timing import TimingAnalyzer

__all__ = ["CpprEngine", "CpprOptions"]

#: Collected full queries by corner and analysis mode (rides the
#: counter merge, so totals stay executor-independent like every other
#: work counter).  ``corner="-"`` labels engines with no corners
#: configured.
_QUERIES = _metrics.REGISTRY.counter(
    "engine.queries", labels=("corner", "mode"),
    help="Collected top_paths queries by corner and analysis mode")
#: Last collected query's wall seconds per mode.  A gauge (registry
#: local, last-write-wins) rather than a histogram on purpose: bucketed
#: wall time would put timing jitter into ``Profile.counters`` and break
#: their executor-independence guarantee.
_QUERY_SECONDS = _metrics.REGISTRY.gauge(
    "engine.query_seconds", labels=("mode",),
    help="Wall seconds of the most recent collected top_paths query")


@dataclass(frozen=True, slots=True)
class CpprOptions:
    """Tuning knobs for :class:`CpprEngine`.

    Attributes
    ----------
    executor:
        ``"serial"``, ``"thread"`` or ``"process"`` — how the independent
        per-level passes run (see :mod:`repro.cppr.parallel`).
    workers:
        Worker count for parallel executors; ``None`` picks automatically.
    include_self_loops / include_primary_inputs:
        Disable candidate families (Definitions 5-6).  Disabling a family
        makes results incomplete with respect to the paper's problem
        statement; the switches exist for ablation studies.
    include_output_tests:
        Enable the primary-output extension family (off by default to
        match the paper's formulation).
    heap_capacity:
        Live-path bound per pass; ``None`` uses ``k`` (always correct).
        Larger values exist only for the unbounded-heap memory ablation.
    backend:
        ``"auto"``, ``"scalar"`` or ``"array"`` — the compute substrate
        for the per-pass propagation, grouping and deviation costs (see
        :mod:`repro.core`).  The array backend runs the ``D + 2``
        family propagations (levels, self-loops, primary inputs) as one
        ``(2(D + 2), n)`` batched sweep (:mod:`repro.core.batched`); the
        scalar backend runs ``D + 2`` independent reference passes.
        ``"auto"`` picks ``"array"`` when numpy is importable and falls
        back to ``"scalar"`` otherwise; requesting ``"array"`` without
        numpy raises at engine construction.  Both backends produce
        identical reports.
    task_timeout:
        Seconds each pooled per-level task may take before the
        scheduler declares it hung and re-runs it on a safer executor
        rung; ``None`` (default) never times out.  Unenforceable under
        the serial executor, which runs tasks inline.
    max_retries / retry_backoff:
        Bounded same-rung re-runs of tasks that raised, sleeping
        ``retry_backoff * 2**attempt`` seconds between waves.
    strict:
        Disable every recovery mechanism — no retries, no executor
        fallback, no backend degradation — and raise
        :class:`~repro.exceptions.ExecutionError` on the first fault
        instead.  For callers that prefer failing fast over a slower
        (but still exact) degraded answer.
    corners:
        A :class:`~repro.corners.CornerSet` to analyze, or ``None``
        (single-corner analysis of the base design).  With corners
        configured the engine realizes every corner at construction
        (sharing one :class:`~repro.core.arrays.CoreStructure`), fuses
        all ``C`` propagations into one stacked sweep, and answers
        queries per corner (``top_paths(k, mode, corner=name)``,
        :meth:`CpprEngine.top_paths_by_corner`,
        :meth:`CpprEngine.merged_worst`) — bit-for-bit identical to
        ``C`` independent single-corner engines.  See ``docs/MCMM.md``.
    """

    executor: str = "serial"
    workers: int | None = None
    include_self_loops: bool = True
    include_primary_inputs: bool = True
    include_output_tests: bool = False
    heap_capacity: int | None = None
    backend: str = "auto"
    task_timeout: float | None = None
    max_retries: int = 2
    retry_backoff: float = 0.05
    strict: bool = False
    corners: "CornerSet | None" = None


def _run_family(analyzer: TimingAnalyzer, task: tuple, k: int,
                mode: AnalysisMode, heap_capacity: int | None,
                backend: str, batch=None) -> list[TimingPath]:
    """Dispatch one candidate-generation pass; ``batch`` serves every
    family but the output family."""
    kind = task[0]
    if kind == "level":
        return paths_at_level(analyzer, task[1], k, mode, heap_capacity,
                              backend, batch)
    if kind == "self_loop":
        return self_loop_paths(analyzer, k, mode, heap_capacity, backend,
                               batch)
    if kind == "primary_input":
        return primary_input_paths(analyzer, k, mode, heap_capacity,
                                   backend, batch)
    if kind == "output":
        return output_paths(analyzer, k, mode, heap_capacity, backend)
    raise AnalysisError(f"unknown candidate family task {task!r}")


def _run_family_resilient(analyzer: TimingAnalyzer, task: tuple, k: int,
                          mode: AnalysisMode, heap_capacity: int | None,
                          backend: str, batch, strict: bool
                          ) -> tuple[list[TimingPath], tuple]:
    """One candidate pass with the backend degradation ladder.

    When a pass dies inside the array substrate (numpy import vanishing
    in a worker, an allocation failure mid-sweep), the *same* pass is
    re-run on the scalar reference — ``array -> scalar`` — which
    computes bit-for-bit identical paths without the batch.  Returns
    ``(paths, degradation_events)`` so the engine can surface what
    happened; deliberate library errors (:class:`ReproError`) and
    strict mode propagate unchanged.
    """
    events: list[dict] = []
    while True:
        try:
            paths = _run_family(analyzer, task, k, mode, heap_capacity,
                                backend, batch)
            return paths, tuple(events)
        except ReproError:
            raise
        except Exception as exc:
            if strict:
                raise
            safer = safer_backend(backend)
            if safer is None:
                raise
            events.append({"event": "degrade.backend",
                           "task": "/".join(map(str, task)),
                           "source": backend, "target": safer,
                           "error": repr(exc)})
            backend, batch = safer, None


def _validate_options(options: CpprOptions) -> tuple[str, int]:
    """Reject bad executor/worker/backend settings at construction time.

    Failing here — with the list of valid values — beats the obscure
    failure the same mistake used to produce deep inside
    :func:`repro.cppr.parallel.run_tasks` on the first query.  Returns
    the resolved concrete backend (``"scalar"`` or ``"array"``) and the
    resolved worker count.  Requesting more workers than the machine
    has CPUs is not an error — it is clamped here (oversubscribed
    pools only add contention), and the clamp is visible as the
    ``requested->resolved`` worker entry in the profile header.
    """
    valid = available_executors()
    if options.executor not in valid:
        raise AnalysisError(
            f"unknown executor {options.executor!r}; valid executors on "
            f"this platform: {', '.join(valid)}")
    try:
        backend = resolve_backend(options.backend)
    except ValueError as exc:
        raise AnalysisError(str(exc)) from None
    cpus = os.cpu_count() or 1
    workers = options.workers
    if workers is None:
        resolved_workers = cpus
    else:
        if not isinstance(workers, int) or isinstance(workers, bool):
            raise AnalysisError(
                f"workers must be a positive int or None, "
                f"got {workers!r}")
        if workers < 1:
            raise AnalysisError(
                f"workers must be at least 1 (or None for automatic), "
                f"got {workers}")
        resolved_workers = min(workers, cpus)
    timeout = options.task_timeout
    if timeout is not None:
        if (isinstance(timeout, bool)
                or not isinstance(timeout, (int, float))
                or timeout <= 0):
            raise AnalysisError(
                f"task_timeout must be a positive number of seconds or "
                f"None, got {timeout!r}")
    retries = options.max_retries
    if (isinstance(retries, bool) or not isinstance(retries, int)
            or retries < 0):
        raise AnalysisError(
            f"max_retries must be a non-negative int, got {retries!r}")
    backoff = options.retry_backoff
    if (isinstance(backoff, bool)
            or not isinstance(backoff, (int, float)) or backoff < 0):
        raise AnalysisError(
            f"retry_backoff must be a non-negative number of seconds, "
            f"got {backoff!r}")
    if not isinstance(options.strict, bool):
        raise AnalysisError(
            f"strict must be a bool, got {options.strict!r}")
    if options.corners is not None:
        from repro.corners import CornerSet
        if not isinstance(options.corners, CornerSet):
            raise AnalysisError(
                f"corners must be a repro.corners.CornerSet or None, "
                f"got {options.corners!r}")
    return backend, resolved_workers


class CpprEngine:
    """Top-k post-CPPR critical-path engine (the paper's contribution).

    When a :mod:`repro.obs` collector is active during a query, the run
    is traced (per-pass spans, heap/deviation/propagation counters) and
    the resulting :class:`~repro.obs.profile.Profile` snapshot is kept in
    :attr:`last_profile`.  Without a collector the engine runs exactly as
    before and ``last_profile`` stays untouched.
    """

    def __init__(self, analyzer: TimingAnalyzer,
                 options: CpprOptions | None = None) -> None:
        self.analyzer = analyzer
        self.options = options or CpprOptions()
        #: The concrete backend ``"auto"`` resolved to at construction
        #: and the worker count after clamping to the machine's CPUs.
        self.backend, self.resolved_workers = _validate_options(
            self.options)
        #: Profile of the most recent collected query, or ``None``.
        self.last_profile: Profile | None = None
        #: Trace id of the most recent collected query, or ``None``.
        #: Matches ``last_profile.trace_id`` and the id stamped on
        #: exported traces and degradation events of that window.
        self.last_trace_id: str | None = None
        #: Fault/degradation events of the most recent full query —
        #: empty for clean runs.  Also embedded as the ``degraded``
        #: section of :attr:`last_profile` when a collector was active.
        self.last_degraded: tuple[dict, ...] = ()
        #: Extra ``Profile.meta`` entries merged into every collected
        #: query's header by :meth:`profile_meta`.  The timing server
        #: stamps its serving context here (design token, session id,
        #: corner count) so Chrome traces exported from concurrent
        #: requests are distinguishable in Perfetto.
        self.meta_context: dict[str, str] = {}
        #: Corner-realized analyzers by name (empty when no corners are
        #: configured).  Realization is eager — a typo'd pin or clock
        #: node in a corner delta raises here, not on the first query —
        #: and on the array backend every corner shares the base
        #: graph's CoreStructure (the fused-sweep precondition).
        self._corner_analyzers: dict[str, TimingAnalyzer] = {}
        if self.options.corners is not None:
            self._corner_analyzers = self.options.corners.realize(
                analyzer, self.backend)
        # Memoized select-stage results keyed (corner, mode, k) — a
        # small LRU sized to hold every corner of a query, with
        # hit/miss/eviction counters under ``select.cache.*``.  The
        # corner id in the key keeps per-corner queries from aliasing
        # the single-corner memo.  The engine's graphs are immutable,
        # so entries never go stale; incremental sessions (which *do*
        # mutate) keep their own validity-stamped caches.
        from repro.pipeline.artifacts import LruCache
        capacity = max(8, 4 * len(self._corner_analyzers))
        self._topk_cache = LruCache(capacity=capacity,
                                    counter_prefix="select.cache")

    def with_options(self, **changes) -> "CpprEngine":
        """A new engine sharing the analyzer with updated options.

        The new engine starts with an empty memoized-query cache: any
        option can change which paths a query returns or how it runs,
        so results never carry over.
        """
        return CpprEngine(self.analyzer,
                          replace(self.options, **changes))

    def session(self, **option_changes) -> "CpprSession":
        """Open an incremental (ECO) re-analysis session.

        The returned :class:`~repro.pipeline.session.CpprSession` owns a
        private clone of the analyzer's graph; ``session.update(...)``
        applies delay/clock edits to the clone (never to this engine's
        graph) and ``session.top_paths(...)`` re-answers queries by
        re-relaxing only the edit's dirty cone and re-running only the
        invalidated candidate families — bit-for-bit identical to a
        fresh engine on the edited design.  See ``docs/INCREMENTAL.md``.

        With corners configured this returns a
        :class:`~repro.pipeline.session.MultiCornerSession` instead:
        one ``update(...)`` applies the edit to every corner with a
        single shared dirty cone, and queries take a ``corner=`` name.
        See ``docs/MCMM.md``.
        """
        from repro.pipeline.session import CpprSession, MultiCornerSession

        options = (replace(self.options, **option_changes)
                   if option_changes else self.options)
        if options.corners is not None:
            return MultiCornerSession(self.analyzer, options)
        return CpprSession(self.analyzer, options)

    def profile_meta(self) -> dict[str, str]:
        """Header metadata stamped on every collected profile.

        The ``workers`` entry shows ``requested->resolved`` whenever
        construction clamped an oversubscribed request, making the
        clamp visible in ``repro report --profile`` output.
        """
        requested = self.options.workers
        if requested is not None and requested != self.resolved_workers:
            workers = f"{requested}->{self.resolved_workers}"
        else:
            workers = str(self.resolved_workers)
        meta = {"executor": self.options.executor,
                "workers": workers,
                "backend": self.backend}
        if self._corner_analyzers:
            names = list(self._corner_analyzers)
            meta["corners"] = f"{len(names)}: {', '.join(names)}"
        for key, value in self.meta_context.items():
            meta[str(key)] = str(value)
        return meta

    def clear_cache(self) -> None:
        """Drop the memoized top-paths results.

        Benchmarks call this between repeated measurements of the same
        query so each run does the full analysis.
        """
        self._topk_cache.clear()

    # ------------------------------------------------------------------
    # The corner axis
    # ------------------------------------------------------------------
    def _corner_items(self) -> list[tuple[str | None, TimingAnalyzer]]:
        """``(corner_name, analyzer)`` pairs this engine analyzes.

        One ``(None, base_analyzer)`` pair without corners; the
        realized corner analyzers (in corner-set order) otherwise.
        """
        if not self._corner_analyzers:
            return [(None, self.analyzer)]
        return list(self._corner_analyzers.items())

    def _corner_key(self, corner: str | None) -> str | None:
        """Validate a ``corner=`` argument against the configuration."""
        if not self._corner_analyzers:
            if corner is not None:
                raise AnalysisError(
                    f"no corners configured on this engine; drop "
                    f"corner={corner!r} or construct with "
                    f"CpprOptions(corners=...)")
            return None
        if corner is None:
            raise AnalysisError(
                "this engine analyzes corners "
                f"({', '.join(self._corner_analyzers)}); pass "
                "corner=<name>, or use top_paths_by_corner() / "
                "merged_worst()")
        if corner not in self._corner_analyzers:
            raise AnalysisError(
                f"unknown corner {corner!r}; valid corners: "
                f"{', '.join(self._corner_analyzers)}")
        return corner

    @staticmethod
    def _corner_label(corner: str | None) -> str:
        """The metric/cache label of a corner key (``"-"`` = none)."""
        return "-" if corner is None else corner

    # ------------------------------------------------------------------
    # Candidate generation (Algorithm 1 lines 1-5)
    # ------------------------------------------------------------------
    def _tasks(self) -> list[tuple]:
        num_levels = self.analyzer.clock_tree.num_levels
        tasks: list[tuple] = [("level", d) for d in range(num_levels)]
        if self.options.include_self_loops:
            tasks.append(("self_loop",))
        if self.options.include_primary_inputs:
            tasks.append(("primary_input",))
        if self.options.include_output_tests:
            tasks.append(("output",))
        return tasks

    def candidate_paths(self, k: int, mode: AnalysisMode | str,
                        corner: str | None = None) -> list[TimingPath]:
        """All family candidates (up to ``k (D + 2)`` paths), unselected.

        With corners configured, ``corner`` names which corner's
        candidates to return (the underlying generation is always the
        fused all-corner run).  Exposed for tests and ablations; most
        callers want :meth:`top_paths`.
        """
        if k < 1:
            raise AnalysisError(f"k must be at least 1, got {k}")
        mode = AnalysisMode.coerce(mode)
        key = self._corner_key(corner)
        return self._generate_candidates(k, mode)[key]

    def _generate_candidates(
            self, k: int, mode: AnalysisMode
    ) -> dict[str | None, list[TimingPath]]:
        """One fused candidate-generation pass over every corner item.

        All ``C`` corners (or the single base design) share one
        structure/values/propagation prologue, one stacked ``(C * 2(D
        + 2), n)`` sweep on the array backend, and ONE task fan-out of
        ``C * (D + 2)`` family passes — the amortization this engine's
        corner axis exists for.  Returns per-corner candidate lists keyed like
        :meth:`_corner_items`.
        """
        strict = self.options.strict
        degraded: list[dict] = []
        col = _obs.ACTIVE
        items = self._corner_items()
        with _obs.span("candidates"):
            # The stage[...] spans mirror the staged pipeline's
            # vocabulary (repro.pipeline.STAGES) so a one-shot engine
            # trace and an incremental-session trace read the same way.
            with _obs.span("stage", "structure"):
                # The analyzer's topological order is cached lazily;
                # force it here so forked workers inherit it instead of
                # recomputing it each.  Same reasoning for the
                # clock-tree lifting mirror on the array backend.
                # Corner graphs share the base topo_order; their trees
                # lift independently (per-corner clock deltas).
                for _name, analyzer in items:
                    analyzer.graph.topo_order
                    if self.backend == "array":
                        from repro.core.grouping import tree_lift
                        tree_lift(analyzer.clock_tree)
            with _obs.span("stage", "values"):
                if self.backend == "array":
                    # Build the CSR cores (shared structure plus each
                    # corner's bound delay-value columns) once in this
                    # process so every worker (thread or forked
                    # process) reuses them.  On the scalar backend
                    # values live on the graphs already and this stage
                    # is empty.
                    from repro.core.arrays import get_core
                    for _name, analyzer in items:
                        get_core(analyzer.graph)
            # One stacked sweep replaces the C * (D + 2) family
            # propagations; it runs in this process before the pool
            # starts, so thread and forked workers inherit the shared
            # matrices for free and parallelize the deviation searches.
            batches: dict[str | None, object] = {name: None
                                                 for name, _ in items}
            backend = self.backend
            with _obs.span("stage", "propagation"):
                if backend == "array":
                    try:
                        from repro.core.batched import \
                            propagate_dual_batched_corners
                        built = propagate_dual_batched_corners(
                            [analyzer.graph for _n, analyzer in items],
                            mode)
                        # Every row's capture seeds in one pass here,
                        # so forked workers inherit them instead of
                        # each recomputing them.
                        for (_name, analyzer), batch in zip(items, built):
                            batch.capture_seeds(0, analyzer)
                        batches = {name: batch for (name, _a), batch
                                   in zip(items, built)}
                    except ReproError:
                        raise
                    except Exception as exc:
                        if strict:
                            raise ExecutionError(
                                "batched propagation failed in strict "
                                "mode") from exc
                        # Without the sweep the query runs on the
                        # scalar rung.
                        backend = safer_backend(self.backend)
                        degraded.append({"event": "degrade.backend",
                                         "task": "build",
                                         "source": self.backend,
                                         "target": backend,
                                         "error": repr(exc)})
            # Every task crosses to its executor as a shard descriptor;
            # process workers read the design, core and batch they
            # inherited at fork.  All C designs register before the
            # single fan-out so the pool forks at most once.  The same
            # descriptor path runs under every executor so spans and
            # counters stay executor-independent.
            from repro.cppr import shard as _shard
            task_index = [(name, analyzer, task)
                          for name, analyzer in items
                          for task in self._tasks()]
            shard_ctxs: dict[str | None, _shard.ShardContext] = {}
            try:
                for name, analyzer in items:
                    shard_ctxs[name] = _shard.open_query(
                        analyzer, batches[name],
                        publish_batch=self.options.executor == "process")
                args = [(shard_ctxs[name].descriptor(
                            task, k, mode, self.options.heap_capacity,
                            backend, strict,
                            corner=self._corner_label(name)),)
                        for name, _analyzer, task in task_index]
                with _obs.span("stage", "families"):
                    try:
                        packed = run_tasks(
                            _shard.run_family_descriptor, args,
                            executor=self.options.executor,
                            workers=self.resolved_workers,
                            task_timeout=self.options.task_timeout,
                            max_retries=0 if strict
                            else self.options.max_retries,
                            retry_backoff=self.options.retry_backoff,
                            fallback=not strict,
                            events=degraded)
                    except ReproError:
                        raise
                    except Exception as exc:
                        raise ExecutionError(
                            "candidate generation failed"
                            + (" in strict mode" if strict else
                               " after exhausting every fallback")
                        ) from exc
            finally:
                for ctx in shard_ctxs.values():
                    ctx.close()
        results: dict[str | None, list[TimingPath]] = {
            name: [] for name, _ in items}
        for (name, _analyzer, _task), (family, task_events) in zip(
                task_index, packed):
            results[name].extend(family)
            degraded.extend(task_events)
        if col is not None:
            # Scheduler events were counted by run_tasks as they
            # happened; the backend-ladder events travelled back from
            # the (possibly forked) tasks and are counted here.  Every
            # event is stamped with the window's trace id so exported
            # traces and degradation records correlate.
            for event in degraded:
                if event["event"] == "degrade.backend":
                    col.add(event["event"])
                event.setdefault("trace", col.trace_id)
        self.last_degraded = tuple(degraded)
        if degraded:
            summary = {}
            for event in degraded:
                summary[event["event"]] = summary.get(event["event"], 0) + 1
            warnings.warn(
                "CPPR query completed degraded ("
                + ", ".join(f"{name} x{count}"
                            for name, count in sorted(summary.items()))
                + "); the report is still exact",
                DegradedResultWarning, stacklevel=3)
        return results

    # ------------------------------------------------------------------
    # The headline query (Algorithm 1 line 6)
    # ------------------------------------------------------------------
    def top_paths(self, k: int, mode: AnalysisMode | str,
                  corner: str | None = None) -> list[TimingPath]:
        """The global top-``k`` post-CPPR critical paths, worst first.

        Each returned path's ``slack`` is the exact post-CPPR slack of
        Equation (2) and its ``credit`` the removed pessimism.

        With corners configured ``corner`` is required (one fused run
        computes *every* corner, so asking for the others afterwards is
        a cache hit); without corners it must stay ``None``.

        Results are memoized in a small keyed LRU (the pipeline's
        ``select`` artifact): repeating a ``(corner, mode, k)`` query —
        or asking for a smaller ``k`` in the same corner and mode, the
        ``worst_path`` / ``top_slacks`` / ``report`` after
        ``top_paths`` pattern — serves a prefix of a cached list
        instead of redoing the analysis (candidate generation and
        selection are deterministic, so the top-``k`` is a prefix of
        the top-``k'`` for ``k <= k'``).  Traffic is counted under
        ``select.cache.*``.  The cache is skipped whenever a collector
        is active, so profiled runs always measure real work.
        """
        if k < 1:
            raise AnalysisError(f"k must be at least 1, got {k}")
        mode = AnalysisMode.coerce(mode)
        key = self._corner_key(corner)
        label = self._corner_label(key)
        col = _obs.ACTIVE
        if col is None:
            served = self._serve_cached(mode, k, label)
            if served is not None:
                return served
        _QUERIES.labels(corner=label, mode=mode.value).inc()
        return self._run_query(k, mode)[key]

    def top_paths_by_corner(
            self, k: int, mode: AnalysisMode | str
    ) -> dict[str, list[TimingPath]]:
        """Every corner's top-``k``, from ONE fused analysis run.

        Requires corners to be configured.  The returned dict preserves
        corner-set order; each list is bit-for-bit what a single-corner
        engine on that corner's realized design would return.
        """
        if not self._corner_analyzers:
            raise AnalysisError(
                "no corners configured; construct the engine with "
                "CpprOptions(corners=...) to use top_paths_by_corner")
        if k < 1:
            raise AnalysisError(f"k must be at least 1, got {k}")
        mode = AnalysisMode.coerce(mode)
        col = _obs.ACTIVE
        if col is None:
            served = {name: self._serve_cached(mode, k, name)
                      for name in self._corner_analyzers}
            if all(paths is not None for paths in served.values()):
                return served
        for name in self._corner_analyzers:
            _QUERIES.labels(corner=name, mode=mode.value).inc()
        return {name: paths for name, paths
                in self._run_query(k, mode).items()}

    def merged_worst(self, k: int, mode: AnalysisMode | str
                     ) -> list[tuple[str, TimingPath]]:
        """The ``k`` most critical paths across *all* corners.

        Merged-worst semantics (see ``docs/MCMM.md``): the union of
        the per-corner top-``k`` lists, ordered worst-first by
        ``(slack, pins, corner name)`` — the first two components are
        the select stage's own path order, the corner name breaks
        cross-corner ties deterministically.  Each entry is ``(corner
        name, path)``; the same physical path may appear once per
        corner that finds it critical, which is the sign-off-relevant
        reading (it must be fixed at every corner it fails in).
        """
        by_corner = self.top_paths_by_corner(k, mode)
        merged = [(name, path) for name, paths in by_corner.items()
                  for path in paths]
        merged.sort(key=lambda entry: (entry[1].key(), entry[0]))
        return merged[:k]

    def _run_query(self, k: int,
                   mode: AnalysisMode) -> dict[str | None,
                                               list[TimingPath]]:
        """Fused candidates + per-corner select; memoizes every corner."""
        col = _obs.ACTIVE
        started = time.perf_counter()
        items = dict(self._corner_items())
        with _obs.span("top_paths"):
            candidates = self._generate_candidates(k, mode)
            with _obs.span("stage", "select"):
                selected = {
                    key: select_top_paths(items[key], paths, k)
                    for key, paths in candidates.items()}
        if col is not None:
            _QUERY_SECONDS.labels(mode=mode.value).set(
                time.perf_counter() - started)
            self.last_trace_id = col.trace_id
            self.last_profile = col.profile().with_degraded(
                self.last_degraded).with_meta(self.profile_meta())
        for key, paths in selected.items():
            self._topk_cache.store(
                (self._corner_label(key), mode, k), tuple(paths))
        return selected

    def _serve_cached(self, mode: AnalysisMode, k: int,
                      corner: str) -> list[TimingPath] | None:
        """A cached ``(corner, mode, k' >= k)`` prefix, or ``None``."""
        best = None
        for entry_corner, entry_mode, entry_k in self._topk_cache.keys():
            if (entry_corner == corner and entry_mode == mode
                    and entry_k >= k):
                if best is None or entry_k < best:
                    best = entry_k
        if best is None:
            self._topk_cache.get((corner, mode, k))  # records the miss
            return None
        return list(self._topk_cache.get((corner, mode, best))[:k])

    def profiled_top_paths(self, k: int, mode: AnalysisMode | str,
                           corner: str | None = None
                           ) -> tuple[list[TimingPath], Profile]:
        """Run :meth:`top_paths` under a fresh collector.

        Returns ``(paths, profile)``; the profile is also stored in
        :attr:`last_profile`.  If a collector was already installed it
        is shadowed for the duration of this call (its totals do not
        include this run).
        """
        with collecting() as col:
            paths = self.top_paths(k, mode, corner=corner)
        return paths, (col.profile().with_degraded(self.last_degraded)
                       .with_meta(self.profile_meta()))

    def top_slacks(self, k: int, mode: AnalysisMode | str,
                   corner: str | None = None) -> list[float]:
        """Just the slack values of :meth:`top_paths` (ascending)."""
        return [path.slack
                for path in self.top_paths(k, mode, corner=corner)]

    def worst_path(self, mode: AnalysisMode | str,
                   corner: str | None = None) -> TimingPath | None:
        """The single most critical post-CPPR path, or ``None``."""
        paths = self.top_paths(1, mode, corner=corner)
        return paths[0] if paths else None

    def report(self, k: int, mode: AnalysisMode | str,
               title: str | None = None,
               corner: str | None = None) -> str:
        """The human-readable report of :meth:`top_paths`.

        Reuses the memoized result when :meth:`top_paths` already ran
        for this ``(corner, mode, k)`` (or a larger ``k``, same corner
        and mode).
        """
        from repro.cppr.report import format_path_report

        mode = AnalysisMode.coerce(mode)
        key = self._corner_key(corner)
        paths = self.top_paths(k, mode, corner=corner)
        if title is None:
            title = f"Top-{k} post-CPPR {mode.value} paths"
            if key is not None:
                title += f" [corner {key}]"
        analyzer = (self.analyzer if key is None
                    else self._corner_analyzers[key])
        return format_path_report(analyzer, paths, title=title)

    def merged_worst_report(self, k: int,
                            mode: AnalysisMode | str,
                            title: str | None = None) -> str:
        """The human-readable report of :meth:`merged_worst`."""
        from repro.cppr.report import format_merged_report

        mode = AnalysisMode.coerce(mode)
        entries = self.merged_worst(k, mode)
        if title is None:
            title = (f"Top-{k} post-CPPR {mode.value} paths "
                     f"(merged worst across corners)")
        return format_merged_report(self._corner_analyzers, entries,
                                    title=title)
