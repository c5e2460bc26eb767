"""Incremental (ECO) re-analysis sessions.

:class:`CpprSession` is the stateful driver of the staged pipeline
(:mod:`repro.pipeline`): it owns a privately mutable clone of an
analyzer's graph, applies delay/clock edits to it through
``session.update(...)``, and re-answers ``session.top_paths(...)``
queries by redoing only the work the edit invalidated —

* the **values** stage rewrites the edited delay columns in place
  (:meth:`~repro.core.arrays.CoreArrays.apply_value_updates`) instead of
  rebuilding any index structure;
* the **propagation** stage re-relaxes only the edit's dirty cone
  (:func:`repro.pipeline.state.replay` over
  :func:`repro.pipeline.dirty.fanout_cone`), falling back to a full
  rebuild — with :func:`~repro.pipeline.state.diff_states` recovering
  the change set — when the cone exceeds a quarter of the graph;
* the **families** stage re-serves a cached candidate family only when
  that is *provably* bit-identical to re-running it: no clock-dirty
  flip-flop participates in it, clock-driven time changes left its
  rows untouched, and — for delay edits — the
  :func:`~repro.pipeline.bounds.sigma_min` lower bound on any
  edit-crossing path's slack (swept over the same dirty cone, not the
  whole graph) strictly clears the family's cached k-th
  slack (which simultaneously proves every cached slack exact, since a
  stale cached path would itself cross a run and drag ``sigma`` to or
  below the boundary);
* the **select** stage re-runs Algorithm 6 over the (partly cached)
  candidates and memoizes the answer under the current validity basis;
  a clock-free update that keeps every family a memoized answer merged
  restamps that answer instead, since select reads nothing else that
  such an update can change (``docs/PROOFS.md`` L8).

Every result is bit-for-bit identical to a fresh
:class:`~repro.cppr.engine.CpprEngine` on the edited design — the
equivalence the test-suite pins across the full backend x executor
matrix.  Construct sessions through
:meth:`repro.cppr.engine.CpprEngine.session`.

:class:`MultiCornerSession` lifts the same machinery over a
:class:`~repro.corners.CornerSet`: one per-corner :class:`CpprSession`
family over graphs that share a single
:class:`~repro.core.arrays.CoreStructure`, where one ``update(...)``
applies the edit to every corner and pays the dirty-cone computation
**once** (the cone is pure topology, identical across corners) while
sigma revalidation stays per corner (old delay values differ, so the
bounds do too), each corner's sigma sweep running over the shared
cone.  See ``docs/MCMM.md``.
"""

from __future__ import annotations

from repro.cppr.engine import CpprOptions, _run_family, _validate_options
from repro.cppr.parallel import check_deadline
from repro.cppr.select import select_top_paths
from repro.cppr.types import TimingPath
from repro.exceptions import AnalysisError
from repro.obs import collector as _obs
from repro.obs import metrics as _metrics
from repro.pipeline.artifacts import ArtifactCache
from repro.pipeline.bounds import sigma_min
from repro.pipeline.dirty import clock_dirty_ffs, fanout_cone, topo_positions
from repro.pipeline.state import (ModeState, SessionBatch, build_mode_state,
                                  diff_states, refresh_costs, replay, reseed)
from repro.sta.incremental import (DelayUpdate, apply_clock_updates,
                                   resolve_delay_updates)
from repro.sta.modes import AnalysisMode
from repro.sta.timing import TimingAnalyzer

__all__ = ["CpprSession", "MultiCornerSession"]

_INF = float("inf")

#: Sentinel distinguishing "compute the dirty cone here" from an
#: injected cone (which may legitimately be ``None`` = full rebuild).
_UNSET = object()

#: Distribution of dirty-cone sizes across replayed updates, labeled
#: by corner (``-`` outside multi-corner sessions).  Buckets are fixed
#: (powers of four around the full-rebuild threshold) so the samples
#: merge by addition like every other counter.
_DIRTY_PINS = _metrics.REGISTRY.histogram(
    "replay.dirty_pins", labels=("corner",),
    buckets=(16, 64, 256, 1024, 4096, 16384),
    help="Dirty-cone size (pins) per replayed incremental update")

#: Dirty-cone fraction above which replay loses to a full re-sweep.
FULL_SWEEP_FRACTION = 0.25


class CpprSession:
    """One incremental what-if session over a design.

    ``update()`` edits the session's private graph; ``top_paths()`` (and
    the ``top_slacks`` / ``worst_path`` / ``report`` conveniences) then
    answer against the edited design at full accuracy.  The parent
    analyzer, its graph, and any engines over them are never touched —
    a session is a fork, not a lock.

    Validity state: :attr:`tree_epoch` counts clock-tree edits,
    :attr:`values_version` delay-edit batches; the pair is the basis
    every propagation/family/select artifact is stamped with.
    """

    def __init__(self, analyzer: TimingAnalyzer,
                 options: CpprOptions | None = None,
                 corner: str = "-") -> None:
        self.options = options or CpprOptions()
        #: Corner label stamped on replay metrics (``-`` when this
        #: session is not part of a :class:`MultiCornerSession`).
        self.corner = corner
        self.backend, self.resolved_workers = _validate_options(
            self.options)
        self.graph = analyzer.graph.session_copy()
        self.analyzer = TimingAnalyzer(self.graph, analyzer.constraints)
        self.tree_epoch = 0
        self.values_version = 0
        #: Dirty fraction of the most recent :meth:`update` (pins
        #: replayed over total pins; 1.0 for a full-rebuild fallback).
        self.last_dirty_fraction = 0.0
        #: Extra ``Profile.meta`` entries merged by :meth:`profile_meta`
        #: — the timing server stamps its serving context (design
        #: token, session id) here.
        self.meta_context: dict[str, str] = {}

        self._core = None
        if self.backend == "array":
            from repro.core.arrays import (CoreArrays, CoreValues,
                                           get_core)
            parent = get_core(analyzer.graph)
            old = parent.values
            values = CoreValues(old.edge_early.copy(),
                                old.edge_late.copy(),
                                old.fanin_early.copy(),
                                old.fanin_late.copy())
            self._core = CoreArrays(self.graph,
                                    structure=parent.structure,
                                    values=values)
            self.graph._core_arrays = self._core
            # Batched pad geometry and FF pin columns are topology-keyed;
            # share whatever the parent has already built.
            for attr in ("_batched_pads", "_batched_ff_columns"):
                value = getattr(analyzer.graph, attr, None)
                if value is not None:
                    setattr(self.graph, attr, value)

        num_levels = self.graph.clock_tree.num_levels
        self._states: dict[AnalysisMode, ModeState] = {}
        self._positions: dict[int, int] | None = None
        self._families = ArtifactCache(
            capacity=max(32, 4 * (num_levels + 3)),
            counter_prefix="pipeline.family")
        self._select = ArtifactCache(capacity=8,
                                     counter_prefix="pipeline.select")
        #: The basis the update in flight started from (set by
        #: :meth:`_apply_edits`, which both update paths run).
        self._start_basis = self._basis

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @property
    def _basis(self) -> tuple[int, int]:
        return (self.tree_epoch, self.values_version)

    def _topo_positions(self) -> dict[int, int]:
        if self._positions is None:
            self._positions = topo_positions(self.graph)
        return self._positions

    def _state(self, mode: AnalysisMode) -> ModeState:
        state = self._states.get(mode)
        if state is None:
            with _obs.span("pipeline.propagation", mode.value):
                state = build_mode_state(
                    self.graph, mode, self.backend,
                    self.options.include_self_loops,
                    self.options.include_primary_inputs)
            self._states[mode] = state
        return state

    def _tasks(self) -> list[tuple]:
        tasks: list[tuple] = [("level", d) for d
                              in range(self.graph.clock_tree.num_levels)]
        if self.options.include_self_loops:
            tasks.append(("self_loop",))
        if self.options.include_primary_inputs:
            tasks.append(("primary_input",))
        if self.options.include_output_tests:
            tasks.append(("output",))
        return tasks

    # ------------------------------------------------------------------
    # update(): the values / propagation stages
    # ------------------------------------------------------------------
    def update(self, delays: list[DelayUpdate] | tuple = (),
               clock: dict[str, tuple[float, float]] | None = None) -> dict:
        """Apply delay and/or clock-tree edits to the session's design.

        ``delays`` is a list of :class:`~repro.sta.incremental
        .DelayUpdate`; ``clock`` maps clock-tree node names to new
        ``(early, late)`` delays of the edge from their parent (the
        contract of :func:`~repro.sta.incremental.apply_clock_updates`).
        Clock edits are processed first — they re-seed every maintained
        launch map — then delay edits patch the adjacency rows and the
        array core's value columns in place.  The combined dirty cone is
        replayed once, and every cached family is either revalidated
        (provably unaffected) or dropped.

        Returns a summary dict (``dirty_pins``, ``dirty_fraction``,
        ``families_kept`` / ``families_dropped``, ``full_rebuild``).
        """
        delays = list(delays)
        if not delays and not clock:
            return {"dirty_pins": 0, "dirty_fraction": 0.0,
                    "families_kept": len(self._families),
                    "families_dropped": 0, "full_rebuild": False}

        with _obs.span("pipeline.update"):
            roots, run_vals, dirty_ffs = self._apply_edits(delays, clock)
            return self._finish_update(roots, run_vals, dirty_ffs,
                                       len(delays))

    def _apply_edits(self, delays: list[DelayUpdate],
                     clock: dict | None
                     ) -> tuple[set[int], dict, list[int]]:
        """The values stage: mutate the session's design in place.

        Returns ``(roots, run_vals, dirty_ffs)`` for
        :meth:`_finish_update`.  Split out so
        :class:`MultiCornerSession` can apply one edit to every corner
        *before* computing the (shared, topology-only) dirty cone.
        """
        self._start_basis = self._basis
        roots: set[int] = set()
        dirty_ffs: list[int] = []

        if clock:
            old_tree = self.graph.clock_tree
            new_tree = apply_clock_updates(self.graph,
                                           clock).clock_tree
            dirty_ffs = clock_dirty_ffs(old_tree, new_tree)
            self.graph.clock_tree = new_tree
            self.tree_epoch += 1
            for state in self._states.values():
                reseed(state, self.graph, self.backend)
            for index in dirty_ffs:
                roots.add(self.graph.ffs[index].q_pin)

        # Delay edits apply one at a time so each resolves against
        # the rows as the previous edit left them (repeat edits of
        # one edge, parallel-edge runs).  run_vals accumulates every
        # (early, late) value each touched run held at any point —
        # the pessimization domain of the sigma bounds.
        run_vals: dict[tuple[int, int], set] = {}
        for update in delays:
            resolved = resolve_delay_updates(self.graph, [update])
            u, v, _old_e, _old_l, new_e, new_l = resolved[0]
            key = (u, v)
            if key not in run_vals:
                run_vals[key] = {(e, l) for t, e, l
                                 in self.graph.fanout[u] if t == v}
            run_vals[key].add((new_e, new_l))
            self._patch_rows(resolved[0])
            if self._core is not None:
                self._core.apply_value_updates(resolved)
            roots.add(v)
        if delays:
            self.values_version += 1
        return roots, run_vals, dirty_ffs

    def _finish_update(self, roots: set[int], run_vals: dict,
                       dirty_ffs: list[int], num_delays: int,
                       cone=_UNSET) -> dict:
        """Replay, revalidate, and summarize one applied edit.

        ``cone`` injects a precomputed dirty cone (``None`` = full
        rebuild); :class:`MultiCornerSession` passes the union cone it
        computed once for all corners — a superset cone is exact,
        since replaying a clean pin recomputes its unchanged value and
        the sigma sweep reads only the fanout cones of edited sinks.
        """
        _obs.add("pipeline.update.edits", num_delays + len(dirty_ffs))

        changed, old_times, cone, dirty = self._refresh_states(
            roots, run_vals, cone)
        kept, dropped = self._revalidate_families(
            dirty_ffs, run_vals, changed, old_times, cone)
        self._settle_select()
        self._invalidate_analyzer()

        full_rebuild = cone is None
        num_pins = max(1, self.graph.num_pins)
        self.last_dirty_fraction = (1.0 if full_rebuild
                                    else dirty / num_pins)
        summary = {"dirty_pins": dirty,
                   "dirty_fraction": self.last_dirty_fraction,
                   "families_kept": kept, "families_dropped": dropped,
                   "full_rebuild": full_rebuild}
        col = _obs.ACTIVE
        if col is not None:
            summary["trace_id"] = col.trace_id
        return summary

    def _patch_rows(self, resolved: tuple) -> None:
        """Rewrite one edge's entry in the session's private rows.

        The first ``u -> v`` entry of ``fanout[u]`` and the first
        source-``u`` entry of ``fanin[v]`` are the same edge (the
        invariant :func:`repro.sta.incremental._patch_rows` documents);
        the session's rows are private copies, so they mutate in place.
        """
        u, v, _old_e, _old_l, new_e, new_l = resolved
        row = self.graph.fanout[u]
        for index, (target, _e, _l) in enumerate(row):
            if target == v:
                row[index] = (v, new_e, new_l)
                break
        row = self.graph.fanin[v]
        for index, (source, _e, _l) in enumerate(row):
            if source == u:
                row[index] = (u, new_e, new_l)
                break

    def _refresh_states(self, roots: set[int], run_vals: dict,
                        cone=_UNSET) -> tuple[dict, dict, list | None,
                                              int]:
        """Replay (or rebuild) every built mode state over the edit.

        ``cone`` is normally computed here; a multi-corner update
        injects its shared union cone instead (``None`` = full
        rebuild).  Returns per-mode changed-pin rows, per-mode old
        primary times, the replayed cone (``None`` after the
        full-rebuild fallback, empty when no mode state is built yet
        and nothing replays) and the dirty pin count.
        """
        changed: dict[AnalysisMode, list[set[int]]] = {}
        old_times: dict[AnalysisMode, list[dict[int, float]]] = {}
        if not self._states:
            return changed, old_times, [], len(roots)

        if cone is _UNSET:
            positions = self._topo_positions()
            cap = max(64, int(FULL_SWEEP_FRACTION * self.graph.num_pins))
            with _obs.span("pipeline.dirty_cone"):
                cone = fanout_cone(self.graph, roots, positions, cap)

        if cone is None:
            _obs.add("pipeline.fallback.full")
            with _obs.span("pipeline.replay", "full"):
                for mode, state in list(self._states.items()):
                    fresh = build_mode_state(
                        self.graph, mode, self.backend,
                        self.options.include_self_loops,
                        self.options.include_primary_inputs)
                    changed[mode], old_times[mode] = diff_states(state,
                                                                 fresh)
                    self._states[mode] = fresh
            return changed, old_times, None, self.graph.num_pins

        _obs.add("pipeline.dirty_pins", len(cone))
        _DIRTY_PINS.labels(corner=self.corner).observe(len(cone))
        edited_positions: list[int] = []
        if self._core is not None:
            for u, v in run_vals:
                lo, hi = self._core.structure.fanin_run(u, v)
                edited_positions.extend(range(lo, hi))
        with _obs.span("pipeline.replay"):
            for mode, state in self._states.items():
                changed[mode], old_times[mode] = replay(state, self.graph,
                                                        cone)
                if self._core is not None:
                    refresh_costs(state, self._core, changed[mode],
                                  edited_positions)
        return changed, old_times, cone, len(cone)

    # ------------------------------------------------------------------
    # Family revalidation (the serve-or-drop decision)
    # ------------------------------------------------------------------
    def _revalidate_families(self, dirty_ffs: list[int], run_vals: dict,
                             changed: dict, old_times: dict,
                             cone: list[int] | None) -> tuple[int, int]:
        """Restamp provably-unaffected cached families; drop the rest.

        ``cone`` is the replayed dirty cone (``None`` after a full
        rebuild): it holds every edited sink and is fanout-closed, so
        the sigma sweep runs over it instead of the whole graph.  It is
        empty only when no mode state is built, and then every family
        drops before any sweep.
        """
        entries = self._families.entries()
        if not entries:
            return 0, 0
        from repro.cppr.grouping import group_for_level

        tree = self.graph.clock_tree
        num_levels = tree.num_levels
        num_ffs = self.graph.num_ffs
        survivors = []
        dropped = 0
        need_sigma: dict[AnalysisMode, set[int]] = {}

        for key, _basis, value in entries:
            kind, mode_value, level = key[0], key[1], key[2]
            mode = AnalysisMode(mode_value)
            state = self._states.get(mode)
            if state is None:
                self._families.drop(key)
                dropped += 1
                continue
            if dirty_ffs:
                if kind != "level":
                    # Self-loop and primary-input families fold every
                    # flip-flop's tree arrival/credit into seeds or
                    # captures; any clock-dirty FF invalidates them.
                    self._families.drop(key)
                    dropped += 1
                    continue
                grouping = group_for_level(tree, level, num_ffs,
                                           self._grouping_backend())
                if any(grouping.participates(index)
                       for index in dirty_ffs):
                    self._families.drop(key)
                    dropped += 1
                    continue
            row = level if kind == "level" else (
                num_levels if kind == "self_loop" else num_levels + 1)
            row_changed = bool(changed.get(mode)
                               and changed[mode][row])
            if row_changed and (not run_vals or dirty_ffs):
                # Clock-driven (or mixed) time changes: no run bound
                # covers them, so a touched row invalidates.
                self._families.drop(key)
                dropped += 1
                continue
            # Delay-driven changes need no row check at all: every time
            # change originates at an edited run, so a cached path with
            # a stale slack would cross a run — and then its old slack
            # (<= the k-th-slack boundary) itself forces sigma <=
            # boundary.  ``sigma > boundary`` therefore already proves
            # every cached slack exact AND that no crossing path can
            # displace into the top-k; the sigma test below decides.
            if run_vals:
                survivors.append((key, mode, row, value))
                need_sigma.setdefault(mode, set()).add(row)
            else:
                self._families.restamp(key, self._basis)
                survivors.append(None)

        kept = sum(1 for s in survivors if s is None)
        if not need_sigma:
            _obs.add("pipeline.families.kept", kept)
            _obs.add("pipeline.families.dropped", dropped)
            return kept, dropped

        with _obs.span("pipeline.bounds"):
            sigmas = {}
            clock_period = self.analyzer.constraints.clock_period
            for mode, rows in need_sigma.items():
                runs = self._pessimized_runs(run_vals, mode)
                sigmas[mode] = sigma_min(
                    self.graph, self._core, self._states[mode],
                    sorted(rows), runs, old_times[mode], clock_period,
                    self.backend, cone)

        for item in survivors:
            if item is None:
                continue
            key, mode, row, value = item
            k = key[3]
            boundary = value[k - 1].slack if len(value) >= k else _INF
            sigma = sigmas[mode][row]
            if sigma == _INF or sigma > boundary:
                self._families.restamp(key, self._basis)
                kept += 1
            else:
                self._families.drop(key)
                dropped += 1
        _obs.add("pipeline.families.kept", kept)
        _obs.add("pipeline.families.dropped", dropped)
        return kept, dropped

    def _settle_select(self) -> None:
        """Restamp the select entries this update kept; drop the rest.

        An entry is kept when no clock edit happened, it was recorded
        under the basis the update started from, and every family it
        merged now holds the new basis: select then reads the same
        inputs and returns the same answer (``docs/PROOFS.md`` L8).
        The output family is never cached, so with output tests on
        every entry drops.
        """
        start, basis = self._start_basis, self._basis
        current = {key for key, recorded, _ in self._families.entries()
                   if recorded == basis}
        tasks = self._tasks()
        for key, recorded, _value in self._select.entries():
            if recorded == start and start[0] == basis[0] and all(
                    self._family_key(task, *key) in current
                    for task in tasks):
                self._select.restamp(key, basis)
                _obs.add("pipeline.select.restamped")
            else:
                self._select.drop(key)

    def _grouping_backend(self) -> str:
        return "array" if self.backend == "array" else "scalar"

    @staticmethod
    def _pessimized_runs(run_vals: dict,
                         mode: AnalysisMode) -> list[tuple[int, int, float]]:
        """Each edited run with its batch-pessimized delay for ``mode``."""
        if mode.is_setup:
            return [(u, v, max(late for _early, late in vals))
                    for (u, v), vals in run_vals.items()]
        return [(u, v, min(early for early, _late in vals))
                for (u, v), vals in run_vals.items()]

    def _invalidate_analyzer(self) -> None:
        self.analyzer.__dict__.pop("arrivals", None)
        self.analyzer.__dict__.pop("required", None)
        self.analyzer._edge_delay_cache = None

    # ------------------------------------------------------------------
    # Queries: the families / select stages
    # ------------------------------------------------------------------
    def top_paths(self, k: int,
                  mode: AnalysisMode | str) -> list[TimingPath]:
        """The top-``k`` post-CPPR paths of the session's edited design.

        Bit-for-bit what ``CpprEngine(TimingAnalyzer(edited_graph,
        constraints)).top_paths(k, mode)`` would return, computed
        incrementally: a memoized ``(mode, k' >= k)`` answer valid at
        the current basis is served as a prefix; otherwise families
        whose cached lists are provably still exact are served from
        the artifact cache, the rest re-run on the maintained
        propagation state, and the final ``selectTopPaths`` reduction
        runs over them.
        """
        if k < 1:
            raise AnalysisError(f"k must be at least 1, got {k}")
        mode = AnalysisMode.coerce(mode)
        basis = self._basis
        with _obs.span("pipeline.query"):
            served = self._serve_select(mode, k, basis)
            if served is not None:
                return served
            state = self._state(mode)
            batch = SessionBatch(state, self.graph, self._core,
                                 self.backend)
            candidates: list[TimingPath] = []
            for task in self._tasks():
                # Cooperative cancellation: a served request whose
                # deadline ran out abandons the query between families
                # (partial candidate lists are discarded, never
                # selected from).
                check_deadline()
                candidates.extend(self._family(task, batch, k, mode,
                                               basis))
            check_deadline()
            with _obs.span("pipeline.select"):
                selected = select_top_paths(self.analyzer, candidates, k)
            self._select.store((mode.value, k), basis, tuple(selected))
            return selected

    def _serve_select(self, mode: AnalysisMode, k: int,
                      basis: tuple) -> list[TimingPath] | None:
        """A valid cached ``(mode, k' >= k)`` prefix, or ``None``."""
        best = None
        for key, recorded, _value in self._select.entries():
            if recorded == basis and key[0] == mode.value and key[1] >= k:
                if best is None or key[1] < best:
                    best = key[1]
        if best is None:
            # Counts the miss — and detects (and evicts) a poisoned
            # entry sitting at this exact key.
            self._select.get((mode.value, k), basis)
            return None
        return list(self._select.get((mode.value, best), basis)[:k])

    def _family(self, task: tuple, batch: SessionBatch, k: int,
                mode: AnalysisMode, basis: tuple) -> list[TimingPath]:
        kind = task[0]
        heap_capacity = self.options.heap_capacity
        if kind == "output":
            # The output-extension family propagates from primary
            # inputs and FFs against output constraints; it keeps no
            # session state and always re-runs.
            return _run_family(self.analyzer, task, k, mode,
                               heap_capacity, self.backend)
        key = self._family_key(task, mode.value, k)
        cached = self._families.get(key, basis)
        if cached is not None:
            return cached
        with _obs.span("pipeline.family", "/".join(map(str, task))):
            paths = _run_family(self.analyzer, task, k, mode,
                                heap_capacity, self.backend, batch)
        _obs.add("pipeline.families.rerun")
        self._families.store(key, basis, paths)
        return paths

    def _family_key(self, task: tuple, mode_value: str, k: int) -> tuple:
        level = task[1] if task[0] == "level" else None
        return (task[0], mode_value, level, k, self.options.heap_capacity)

    # ------------------------------------------------------------------
    # Conveniences mirroring the engine
    # ------------------------------------------------------------------
    def top_slacks(self, k: int, mode: AnalysisMode | str) -> list[float]:
        """Just the slack values of :meth:`top_paths` (ascending)."""
        return [path.slack for path in self.top_paths(k, mode)]

    def worst_path(self, mode: AnalysisMode | str) -> TimingPath | None:
        """The single most critical post-CPPR path, or ``None``."""
        paths = self.top_paths(1, mode)
        return paths[0] if paths else None

    def report(self, k: int, mode: AnalysisMode | str,
               title: str | None = None) -> str:
        """The human-readable report of :meth:`top_paths`."""
        from repro.cppr.report import format_path_report

        mode = AnalysisMode.coerce(mode)
        paths = self.top_paths(k, mode)
        if title is None:
            title = f"Top-{k} post-CPPR {mode.value} paths"
        return format_path_report(self.analyzer, paths, title=title)

    def stats(self) -> dict:
        """Cache traffic and validity-state snapshot (for tests/bench)."""
        return {
            "tree_epoch": self.tree_epoch,
            "values_version": self.values_version,
            "last_dirty_fraction": self.last_dirty_fraction,
            "modes_built": sorted(mode.value for mode in self._states),
            "families": self._families.stats(),
            "select": self._select.stats(),
        }

    def basis(self) -> tuple[int, int]:
        """The public validity basis ``(tree_epoch, values_version)``.

        Every propagation/family/select artifact is stamped with this
        pair; the timing server's session journal records it after each
        applied update so a crash-replayed session can be verified to
        have reached the exact pre-crash state.
        """
        return self._basis

    def profile_meta(self) -> dict[str, str]:
        """Header metadata for profiles collected around session queries.

        Mirrors :meth:`CpprEngine.profile_meta` for the incremental
        query surface, adding the validity basis and any
        :attr:`meta_context` entries (the server's serving context).
        """
        meta = {"executor": self.options.executor,
                "backend": self.backend,
                "basis": f"{self.tree_epoch}/{self.values_version}"}
        if self.corner != "-":
            meta["corner"] = self.corner
        for key, value in self.meta_context.items():
            meta[str(key)] = str(value)
        return meta


class MultiCornerSession:
    """One incremental what-if session across every configured corner.

    A family of per-corner :class:`CpprSession` forks over corner
    graphs that share one :class:`~repro.core.arrays.CoreStructure`.
    ``update(...)`` applies the same edit to every corner, then pays
    the dirty-cone traversal **once**: the cone is pure fanout
    topology, identical across corners, so the union cone (over every
    corner's roots) is computed on one graph and injected into each
    corner's replay and sigma sweep.  Replaying a superset cone is
    exact — a clean pin recomputes its unchanged value — while sigma
    revalidation stays per corner, because the *old* delay values (the
    pessimization domain of the bounds) differ between corners.

    Queries take a ``corner=`` name, mirroring the multi-corner
    :class:`~repro.cppr.engine.CpprEngine` query surface
    (``top_paths_by_corner`` / ``merged_worst`` included); every
    per-corner answer is bit-for-bit what a single-corner session over
    that corner's realized analyzer would produce.  Construct through
    :meth:`CpprEngine.session` with ``CpprOptions(corners=...)``.  See
    ``docs/MCMM.md``.
    """

    def __init__(self, analyzer: TimingAnalyzer,
                 options: CpprOptions) -> None:
        if options is None or options.corners is None:
            raise AnalysisError(
                "MultiCornerSession needs CpprOptions(corners=...); "
                "use CpprSession for single-corner analysis")
        self.options = options
        backend, _workers = _validate_options(options)
        realized = options.corners.realize(analyzer, backend)
        self.sessions: dict[str, CpprSession] = {
            name: CpprSession(corner_analyzer, options, corner=name)
            for name, corner_analyzer in realized.items()}
        #: Dirty fraction of the most recent :meth:`update` (shared
        #: across corners — the cone is).
        self.last_dirty_fraction = 0.0
        #: Extra ``Profile.meta`` entries merged by :meth:`profile_meta`.
        self.meta_context: dict[str, str] = {}

    @property
    def corners(self) -> tuple[str, ...]:
        return tuple(self.sessions)

    def _session(self, corner: str | None) -> CpprSession:
        if corner is None:
            raise AnalysisError(
                f"this session analyzes corners "
                f"({', '.join(self.sessions)}); pass corner=<name>, or "
                f"use top_paths_by_corner() / merged_worst()")
        try:
            return self.sessions[corner]
        except KeyError:
            raise AnalysisError(
                f"unknown corner {corner!r}; valid corners: "
                f"{', '.join(self.sessions)}") from None

    # ------------------------------------------------------------------
    # update(): one edit, every corner, one dirty cone
    # ------------------------------------------------------------------
    def update(self, delays: list[DelayUpdate] | tuple = (),
               clock: dict[str, tuple[float, float]] | None = None) -> dict:
        """Apply one delay/clock edit to **every** corner.

        The edit vocabulary is exactly :meth:`CpprSession.update`;
        delay updates name pins, so one physical edit resolves against
        each corner's own current values.  Returns the shared summary
        (``dirty_pins`` / ``dirty_fraction`` / ``full_rebuild`` of the
        union cone, ``families_kept`` / ``families_dropped`` summed)
        plus a ``corners`` dict of the per-corner summaries.
        """
        delays = list(delays)
        if not delays and not clock:
            per_corner = {name: session.update()
                          for name, session in self.sessions.items()}
            return {"dirty_pins": 0, "dirty_fraction": 0.0,
                    "families_kept": sum(s["families_kept"]
                                         for s in per_corner.values()),
                    "families_dropped": 0, "full_rebuild": False,
                    "corners": per_corner}

        with _obs.span("pipeline.update"):
            edits = {name: session._apply_edits(delays, clock)
                     for name, session in self.sessions.items()}
            union_roots: set[int] = set()
            for roots, _run_vals, _dirty_ffs in edits.values():
                union_roots |= roots

            # One traversal: corner graphs share fanout topology, so
            # the cone over the union of every corner's roots is a
            # valid (superset) cone for each of them.
            first = next(iter(self.sessions.values()))
            positions = first._topo_positions()
            cap = max(64,
                      int(FULL_SWEEP_FRACTION * first.graph.num_pins))
            with _obs.span("pipeline.dirty_cone"):
                cone = fanout_cone(first.graph, union_roots, positions,
                                   cap)

            per_corner = {}
            for name, session in self.sessions.items():
                roots, run_vals, dirty_ffs = edits[name]
                per_corner[name] = session._finish_update(
                    roots, run_vals, dirty_ffs, len(delays), cone=cone)

            full_rebuild = cone is None
            dirty = (first.graph.num_pins if full_rebuild else len(cone))
            self.last_dirty_fraction = (
                1.0 if full_rebuild
                else dirty / max(1, first.graph.num_pins))
            summary = {
                "dirty_pins": dirty,
                "dirty_fraction": self.last_dirty_fraction,
                "families_kept": sum(s["families_kept"]
                                     for s in per_corner.values()),
                "families_dropped": sum(s["families_dropped"]
                                        for s in per_corner.values()),
                "full_rebuild": full_rebuild,
                "corners": per_corner,
            }
            col = _obs.ACTIVE
            if col is not None:
                summary["trace_id"] = col.trace_id
            return summary

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def top_paths(self, k: int, mode: AnalysisMode | str,
                  corner: str | None = None) -> list[TimingPath]:
        """The top-``k`` post-CPPR paths of one corner's edited design."""
        return self._session(corner).top_paths(k, mode)

    def top_paths_by_corner(self, k: int, mode: AnalysisMode | str
                            ) -> dict[str, list[TimingPath]]:
        """Every corner's top-``k`` list, in corner-set order."""
        return {name: session.top_paths(k, mode)
                for name, session in self.sessions.items()}

    def merged_worst(self, k: int, mode: AnalysisMode | str
                     ) -> list[tuple[str, TimingPath]]:
        """The ``k`` most critical paths across all corners.

        Same merged-worst semantics as
        :meth:`CpprEngine.merged_worst` (see ``docs/MCMM.md``).
        """
        by_corner = self.top_paths_by_corner(k, mode)
        merged = [(name, path) for name, paths in by_corner.items()
                  for path in paths]
        merged.sort(key=lambda entry: (entry[1].key(), entry[0]))
        return merged[:k]

    def top_slacks(self, k: int, mode: AnalysisMode | str,
                   corner: str | None = None) -> list[float]:
        """Just the slack values of :meth:`top_paths` (ascending)."""
        return [path.slack for path in self.top_paths(k, mode, corner)]

    def worst_path(self, mode: AnalysisMode | str,
                   corner: str | None = None) -> TimingPath | None:
        """The single most critical post-CPPR path, or ``None``."""
        paths = self.top_paths(1, mode, corner)
        return paths[0] if paths else None

    def report(self, k: int, mode: AnalysisMode | str,
               title: str | None = None,
               corner: str | None = None) -> str:
        """The human-readable report of one corner's :meth:`top_paths`."""
        session = self._session(corner)
        mode = AnalysisMode.coerce(mode)
        if title is None:
            title = (f"Top-{k} post-CPPR {mode.value} paths "
                     f"[corner {corner}]")
        return session.report(k, mode, title=title)

    def merged_worst_report(self, k: int, mode: AnalysisMode | str,
                            title: str | None = None) -> str:
        """The human-readable report of :meth:`merged_worst`."""
        from repro.cppr.report import format_merged_report

        mode = AnalysisMode.coerce(mode)
        entries = self.merged_worst(k, mode)
        if title is None:
            title = (f"Top-{k} post-CPPR {mode.value} paths "
                     f"(merged worst across corners)")
        analyzers = {name: session.analyzer
                     for name, session in self.sessions.items()}
        return format_merged_report(analyzers, entries, title=title)

    def stats(self) -> dict:
        """Per-corner cache/validity snapshots plus the shared cone."""
        return {"last_dirty_fraction": self.last_dirty_fraction,
                "corners": {name: session.stats()
                            for name, session in self.sessions.items()}}

    def basis(self) -> dict[str, tuple[int, int]]:
        """Every corner's ``(tree_epoch, values_version)`` basis."""
        return {name: session.basis()
                for name, session in self.sessions.items()}

    def profile_meta(self) -> dict[str, str]:
        """Header metadata for profiles collected around session queries."""
        first = next(iter(self.sessions.values()))
        meta = {"executor": self.options.executor,
                "backend": first.backend,
                "corners": f"{len(self.sessions)}: "
                           f"{', '.join(self.sessions)}"}
        for key, value in self.meta_context.items():
            meta[str(key)] = str(value)
        return meta
