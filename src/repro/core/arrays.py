"""CSR/struct-of-arrays view of a :class:`TimingGraph`, split into an
immutable structure half and a mutable value half.

One :class:`CoreArrays` instance pairs

* a :class:`CoreStructure` — every index array that depends only on the
  graph's *topology*: ``level_of``, the levelized edge-table CSR with its
  per-level segment geometry, and the fanin CSR index columns.  The
  structure is immutable and shareable: two graphs with identical
  topology but different delays (an ECO edit) reuse one structure; and
* :class:`CoreValues` — the delay columns of both tables
  (``edge_early/edge_late`` and ``fanin_early/fanin_late`` with their
  plain-list mirrors) plus a monotonically increasing ``version``.
  Values are mutable: :meth:`CoreArrays.apply_value_updates` rewrites
  delay entries in place — the pipeline's ``values`` stage — so an
  incremental delay edit never rebuilds CSR.

Layout recap (unchanged from the single-object days):

* ``level_of`` — longest-path level per pin.  Every data edge goes from
  a lower to a strictly higher level, so relaxing the edge buckets in
  increasing source-level order is equivalent to relaxing edges in
  topological order (the invariant behind every level-wise pass).
* the **edge table** ``edge_src/edge_dst/edge_early/edge_late`` sorted
  by ``(level_of[src], dst, src, early, late)`` with ``level_ptr``
  offsets — the per-level buckets consumed by the forward passes
  (:mod:`repro.core.propagate`, :mod:`repro.core.batched` and
  :func:`repro.sta.vectorized.propagate_arrivals_vectorized`).
  Sorting each level by destination groups every target pin's incoming
  edges into one contiguous *segment*, so a level relaxation is a
  handful of ``ufunc.reduceat`` segment reductions instead of a runtime
  sort.  :class:`LevelBucket` precomputes the segment geometry
  (``estarts``/``eseg``/``seg_dst``).
* the **fanin CSR** ``fanin_ptr/fanin_src/fanin_early/fanin_late``
  sorted by ``(dst, src, early, late)`` — consumed by the deviation
  search, which walks backward.  ``fanin_dst`` is the expanded per-edge
  destination column used to precompute deviation costs in one
  vectorized pass.  Plain-list mirrors of the CSR are kept alongside
  because the deviation walk indexes single elements in a tight loop,
  where Python lists beat numpy scalars.

Only the *within-run* order of parallel edges (equal ``(src, dst)``)
depends on delay values: runs are kept sorted by ``(early, late)``, and
:meth:`CoreArrays.apply_value_updates` re-sorts an edited run so the
arrays remain exactly what a from-scratch build of the edited graph
would produce.  Every index array is therefore a pure function of
topology, which is what makes structure sharing sound.

The sort keys make both tables fully deterministic functions of the
graph, independent of ``graph.fanout`` adjacency-list ordering — one
half of the cross-backend tie-breaking contract (see
:mod:`repro.core`).

Observability: building emits a ``core.build`` span with counters
``core.builds``, ``core.edges`` and ``core.levels``; cache hits count
``core.reuses``; a shared-structure value build counts
``core.structure_reuses``; in-place delay rewrites count
``core.value_updates``.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.graph import TimingGraph
from repro.ds.topo import longest_path_levels
from repro.obs import collector as _obs

__all__ = ["CoreArrays", "CoreStructure", "CoreValues", "LevelBucket",
           "get_core"]


class LevelBucket:
    """One source level's edges, segmented by destination pin.

    The edge table is sorted so each destination's fanin inside a level
    is contiguous; ``estarts[s]`` is the first edge of segment ``s``,
    ``seg_dst[s]`` its destination pin (unique within the level), and
    ``eseg[i]`` the segment of edge ``i``.

    ``early``/``late`` are *views* into the owning
    :class:`CoreValues` columns, so in-place value updates are visible
    here without rebuilding the bucket.
    """

    __slots__ = ("src", "early", "late", "seg_dst", "estarts", "eseg")

    def __init__(self, src: np.ndarray, dst: np.ndarray,
                 early: np.ndarray, late: np.ndarray) -> None:
        self.src = src
        self.early = early
        self.late = late
        starts = np.flatnonzero(np.r_[True, dst[1:] != dst[:-1]])
        self.seg_dst = dst[starts]
        self.estarts = starts
        counts = np.diff(np.r_[starts, len(dst)])
        self.eseg = np.repeat(np.arange(len(starts)), counts)

    @classmethod
    def _from_geometry(cls, geom: "LevelBucket", early: np.ndarray,
                       late: np.ndarray) -> "LevelBucket":
        """A bucket sharing ``geom``'s index arrays over new delay views.

        The segment geometry is a pure function of ``(src, dst)``, so a
        graph reusing another graph's :class:`CoreStructure` clones its
        buckets without recomputing any of it.
        """
        bucket = cls.__new__(cls)
        bucket.src = geom.src
        bucket.early = early
        bucket.late = late
        bucket.seg_dst = geom.seg_dst
        bucket.estarts = geom.estarts
        bucket.eseg = geom.eseg
        return bucket


class CoreStructure:
    """The topology-keyed half: every index array, no delay values.

    Immutable once built; safely shared between graphs whose topology
    (pin count, edge multiset of ``(src, dst)`` pairs, adjacency-row
    order) is identical — exactly what an ECO delay edit preserves.
    Also lazily caches the derived geometries the incremental pipeline
    needs: the per-bucket backward (source-grouped) relaxation geometry
    for required-time bound sweeps, and the fanin-position-by-source
    index for deviation-cost column maintenance.
    """

    __slots__ = ("num_pins", "num_edges", "num_levels", "level_of",
                 "edge_src", "edge_dst", "level_ptr", "bucket_spans",
                 "fanin_ptr", "fanin_src", "fanin_dst",
                 "fanin_ptr_list", "fanin_src_list", "fanin_dst_list",
                 "_backward_geo", "_fanin_by_src", "__weakref__")

    def __init__(self) -> None:
        self._backward_geo = None
        self._fanin_by_src = None

    # ------------------------------------------------------------------
    # Edge/fanin run location (parallel edges share one run)
    # ------------------------------------------------------------------
    def fanin_run(self, u: int, v: int) -> tuple[int, int]:
        """Fanin-CSR slice ``[lo, hi)`` of the ``u -> v`` edge(s)."""
        lo = self.fanin_ptr_list[v]
        hi = self.fanin_ptr_list[v + 1]
        sub = self.fanin_src[lo:hi]
        a = lo + int(np.searchsorted(sub, u, side="left"))
        b = lo + int(np.searchsorted(sub, u, side="right"))
        return a, b

    def edge_run(self, u: int, v: int) -> tuple[int, int]:
        """Edge-table slice ``[lo, hi)`` of the ``u -> v`` edge(s)."""
        level = int(self.level_of[u])
        lo = int(self.level_ptr[level])
        hi = int(self.level_ptr[level + 1])
        dsub = self.edge_dst[lo:hi]
        a = lo + int(np.searchsorted(dsub, v, side="left"))
        b = lo + int(np.searchsorted(dsub, v, side="right"))
        ssub = self.edge_src[a:b]
        a2 = a + int(np.searchsorted(ssub, u, side="left"))
        b2 = a + int(np.searchsorted(ssub, u, side="right"))
        return a2, b2

    # ------------------------------------------------------------------
    # Lazy derived geometry for the incremental pipeline
    # ------------------------------------------------------------------
    def backward_geometry(self):
        """Per-bucket source-grouped relaxation geometry, highest first.

        For each non-empty level bucket (in *descending* source-level
        order, the schedule of a backward required-time sweep) yields
        ``(positions, sstarts, ssrc, dst_by_src)``: ``positions``
        reorders the bucket's edge-table slice by source pin (stable,
        so within one source the ``(dst, early, late)`` order is kept),
        ``sstarts`` marks equal-source runs, ``ssrc`` their source
        pins, and ``dst_by_src`` the reordered destination column.
        """
        if self._backward_geo is None:
            geos = []
            for lo, hi in reversed(self.bucket_spans):
                src = self.edge_src[lo:hi]
                order = np.argsort(src, kind="stable")
                positions = lo + order
                s = src[order]
                sstarts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
                geos.append((positions, sstarts, s[sstarts],
                             self.edge_dst[positions]))
            self._backward_geo = geos
        return self._backward_geo

    def fanin_by_src(self):
        """``(order, starts)``: fanin positions grouped by source pin.

        ``order[starts[u]:starts[u + 1]]`` are the fanin-CSR positions
        whose *source* is ``u`` — the forward mirror of ``fanin_ptr``,
        used to patch deviation-cost entries after an arrival change at
        ``u``.
        """
        if self._fanin_by_src is None:
            order = np.argsort(self.fanin_src, kind="stable")
            starts = np.searchsorted(
                self.fanin_src[order], np.arange(self.num_pins + 1))
            self._fanin_by_src = (order.tolist(), starts.tolist())
        return self._fanin_by_src


class CoreValues:
    """The mutable half: delay columns of both tables, plus a version.

    ``version`` increments on every in-place rewrite
    (:meth:`CoreArrays.apply_value_updates`); pipeline artifacts embed
    it in their validity keys so a stale cache can never be served.
    """

    __slots__ = ("edge_early", "edge_late", "fanin_early", "fanin_late",
                 "_fanin_early_list", "_fanin_late_list", "version")

    def __init__(self, edge_early: np.ndarray, edge_late: np.ndarray,
                 fanin_early: np.ndarray, fanin_late: np.ndarray) -> None:
        self.edge_early = edge_early
        self.edge_late = edge_late
        self.fanin_early = fanin_early
        self.fanin_late = fanin_late
        self._fanin_early_list = None
        self._fanin_late_list = None
        self.version = 0

    # The scalar-walk mirrors are built on first use: a setup query
    # only ever reads the late list (and hold the early one), and a
    # corner realized but not yet queried reads neither — eager
    # ``tolist`` here would charge every CoreValues copy for both.
    @property
    def fanin_early_list(self) -> list[float]:
        mirror = self._fanin_early_list
        if mirror is None:
            mirror = self._fanin_early_list = self.fanin_early.tolist()
        return mirror

    @property
    def fanin_late_list(self) -> list[float]:
        mirror = self._fanin_late_list
        if mirror is None:
            mirror = self._fanin_late_list = self.fanin_late.tolist()
        return mirror


class CoreArrays:
    """Flat arrays for one graph; construct via :func:`get_core`.

    A thin pairing of one (possibly shared) :class:`CoreStructure` with
    one graph-private :class:`CoreValues`; every historical attribute
    (``edge_src``, ``fanin_early_list``, ...) is still reachable here,
    so consumers never need to know about the split.
    """

    __slots__ = ("structure", "values", "level_buckets")

    def __init__(self, graph: TimingGraph,
                 structure: CoreStructure | None = None,
                 values: CoreValues | None = None) -> None:
        if structure is not None:
            if values is None:
                raise ValueError(
                    "a shared CoreStructure needs explicit CoreValues")
            self.structure = structure
            self.values = values
            self._build_buckets()
            return
        self._build(graph)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self, graph: TimingGraph) -> None:
        n = graph.num_pins
        fanout = graph.fanout
        src, dst, early, late = _edge_columns(graph)
        s = CoreStructure()
        s.num_pins = n
        s.num_edges = len(src)

        levels = np.asarray(
            longest_path_levels(n, [[v for v, _e, _l in adj]
                                    for adj in fanout],
                                graph.topo_order),
            dtype=np.int64)
        s.level_of = levels

        # Edge table bucketed by source level, each level segmented by
        # destination (forward passes).  Parallel edges tie on
        # (level, dst, src) and land sorted by (early, late) — the
        # run order apply_value_updates maintains.
        order, fanin_order = _table_orders(src, dst, early, late, levels)
        s.edge_src = src[order]
        s.edge_dst = dst[order]
        edge_early = early[order]
        edge_late = late[order]
        src_levels = levels[s.edge_src]
        s.num_levels = int(levels.max()) + 1 if n else 0
        # level_ptr[L]..level_ptr[L+1] is the slice of edges whose
        # source sits at level L (possibly empty for sink-only levels).
        s.level_ptr = np.searchsorted(
            src_levels, np.arange(s.num_levels + 1))
        s.bucket_spans = []
        for level in range(s.num_levels):
            lo, hi = int(s.level_ptr[level]), int(s.level_ptr[level + 1])
            if lo == hi:
                continue
            s.bucket_spans.append((lo, hi))

        # Fanin CSR (backward deviation walk).
        s.fanin_src = src[fanin_order]
        s.fanin_dst = dst[fanin_order]
        s.fanin_ptr = np.searchsorted(s.fanin_dst, np.arange(n + 1))
        s.fanin_ptr_list = s.fanin_ptr.tolist()
        s.fanin_src_list = s.fanin_src.tolist()
        s.fanin_dst_list = s.fanin_dst.tolist()

        self.structure = s
        self.values = CoreValues(edge_early, edge_late,
                                 early[fanin_order], late[fanin_order])
        self._build_buckets()

    def _build_buckets(self) -> None:
        s, v = self.structure, self.values
        self.level_buckets = []
        for lo, hi in s.bucket_spans:
            self.level_buckets.append(LevelBucket(
                s.edge_src[lo:hi], s.edge_dst[lo:hi],
                v.edge_early[lo:hi], v.edge_late[lo:hi]))

    # ------------------------------------------------------------------
    # Incremental value rewrites (the pipeline's ``values`` stage)
    # ------------------------------------------------------------------
    def apply_value_updates(
            self, updates: list[tuple[int, int, float, float,
                                      float, float]]) -> None:
        """Rewrite delay entries in place; no index array is touched.

        ``updates`` holds ``(u, v, old_early, old_late, new_early,
        new_late)`` tuples; the entry holding the old pair is replaced
        (mirroring the adjacency-row patch that accompanies it) and a
        parallel-edge run containing the entry is re-sorted by
        ``(early, late)`` so the tables stay exactly what a fresh build
        of the edited graph would produce.
        """
        vals = self.values
        e_mirror = vals._fanin_early_list
        l_mirror = vals._fanin_late_list
        for u, v, old_e, old_l, new_e, new_l in updates:
            flo, fhi = self.structure.fanin_run(u, v)
            if flo == fhi:
                raise ValueError(f"no data edge {u} -> {v} in the core")
            elo, ehi = self.structure.edge_run(u, v)
            if fhi - flo == 1:
                vals.fanin_early[flo] = new_e
                vals.fanin_late[flo] = new_l
                if e_mirror is not None:
                    e_mirror[flo] = new_e
                if l_mirror is not None:
                    l_mirror[flo] = new_l
                vals.edge_early[elo] = new_e
                vals.edge_late[elo] = new_l
                continue
            # Parallel-edge run: replace the entry matching the old
            # pair, then restore the (early, late) run order in both
            # tables.
            for i in range(flo, fhi):
                if (vals.fanin_early[i] == old_e
                        and vals.fanin_late[i] == old_l):
                    break
            else:
                raise ValueError(
                    f"edge {u} -> {v}: no entry with delays "
                    f"({old_e}, {old_l}) to replace")
            vals.fanin_early[i] = new_e
            vals.fanin_late[i] = new_l
            pairs = sorted(zip(vals.fanin_early[flo:fhi].tolist(),
                               vals.fanin_late[flo:fhi].tolist()))
            for j, (e, l) in enumerate(pairs):
                vals.fanin_early[flo + j] = e
                vals.fanin_late[flo + j] = l
                if e_mirror is not None:
                    e_mirror[flo + j] = e
                if l_mirror is not None:
                    l_mirror[flo + j] = l
                vals.edge_early[elo + j] = e
                vals.edge_late[elo + j] = l
        vals.version += 1
        col = _obs.ACTIVE
        if col is not None:
            col.add("core.value_updates", len(updates))

    def updated_copy(self, graph: TimingGraph,
                     updates: list[tuple[int, int, float, float,
                                         float, float]]) -> "CoreArrays":
        """A new :class:`CoreArrays` for ``graph``: shared structure,
        copied value columns with ``updates`` applied.

        The structure-sharing fast path behind
        :func:`repro.sta.incremental.apply_delay_updates` — the derived
        graph pays one array copy instead of a CSR rebuild.
        """
        old = self.values
        vals = CoreValues(old.edge_early.copy(), old.edge_late.copy(),
                          old.fanin_early.copy(), old.fanin_late.copy())
        new = CoreArrays(graph, structure=self.structure, values=vals)
        new.apply_value_updates(updates)
        col = _obs.ACTIVE
        if col is not None:
            col.add("core.structure_reuses")
        return new

    def placed_copy(self, graph: TimingGraph) -> "CoreArrays":
        """A new :class:`CoreArrays` for ``graph``: shared structure,
        value columns read from ``graph``'s own adjacency rows.

        ``graph`` must have this core's topology (a corner realized on
        the graph the core was built for).  Its delays are placed with
        the sort keys of a from-scratch build, one ``lexsort`` per
        table, so the columns are exactly what that build would give,
        whatever fraction of the delays differ.  Raises ``ValueError``
        when the placed ``src``/``dst`` columns are not the shared
        structure's.
        """
        s = self.structure
        src, dst, early, late = _edge_columns(graph)
        order, fanin_order = _table_orders(src, dst, early, late,
                                           s.level_of)
        if not (np.array_equal(src[order], s.edge_src)
                and np.array_equal(dst[order], s.edge_dst)):
            raise ValueError(
                "graph's data edges do not match the shared core "
                "structure")
        vals = CoreValues(early[order], late[order],
                          early[fanin_order], late[fanin_order])
        new = CoreArrays(graph, structure=s, values=vals)
        col = _obs.ACTIVE
        if col is not None:
            col.add("core.structure_reuses")
        return new

    # ------------------------------------------------------------------
    # The historical flat-attribute surface (facade)
    # ------------------------------------------------------------------
    @property
    def num_pins(self) -> int:
        return self.structure.num_pins

    @property
    def num_edges(self) -> int:
        return self.structure.num_edges

    @property
    def num_levels(self) -> int:
        return self.structure.num_levels

    @property
    def level_of(self) -> np.ndarray:
        return self.structure.level_of

    @property
    def edge_src(self) -> np.ndarray:
        return self.structure.edge_src

    @property
    def edge_dst(self) -> np.ndarray:
        return self.structure.edge_dst

    @property
    def level_ptr(self) -> np.ndarray:
        return self.structure.level_ptr

    @property
    def edge_early(self) -> np.ndarray:
        return self.values.edge_early

    @property
    def edge_late(self) -> np.ndarray:
        return self.values.edge_late

    @property
    def fanin_ptr(self) -> np.ndarray:
        return self.structure.fanin_ptr

    @property
    def fanin_src(self) -> np.ndarray:
        return self.structure.fanin_src

    @property
    def fanin_dst(self) -> np.ndarray:
        return self.structure.fanin_dst

    @property
    def fanin_early(self) -> np.ndarray:
        return self.values.fanin_early

    @property
    def fanin_late(self) -> np.ndarray:
        return self.values.fanin_late

    @property
    def fanin_ptr_list(self) -> list[int]:
        return self.structure.fanin_ptr_list

    @property
    def fanin_src_list(self) -> list[int]:
        return self.structure.fanin_src_list

    @property
    def fanin_dst_list(self) -> list[int]:
        return self.structure.fanin_dst_list

    @property
    def fanin_early_list(self) -> list[float]:
        return self.values.fanin_early_list

    @property
    def fanin_late_list(self) -> list[float]:
        return self.values.fanin_late_list

    def level_slices(self):
        """Yield ``(src, dst, early, late)`` per source level, in order."""
        s, v = self.structure, self.values
        ptr = s.level_ptr
        for level in range(s.num_levels):
            lo, hi = ptr[level], ptr[level + 1]
            if lo == hi:
                continue
            yield (s.edge_src[lo:hi], s.edge_dst[lo:hi],
                   v.edge_early[lo:hi], v.edge_late[lo:hi])


def _edge_columns(graph: TimingGraph):
    """``(src, dst, early, late)`` of every data edge, in fanout-row
    order (source pin ascending, then row position)."""
    fanout = graph.fanout
    src = np.repeat(np.arange(len(fanout), dtype=np.int64),
                    [len(row) for row in fanout])
    flat = np.array([entry for row in fanout for entry in row],
                    dtype=np.float64).reshape(-1, 3)
    return src, flat[:, 0].astype(np.int64), flat[:, 1], flat[:, 2]


def _table_orders(src, dst, early, late, level_of):
    """The edge-table order, by ``(level_of[src], dst, src, early,
    late)``, and the fanin-CSR order, by ``(dst, src, early, late)``."""
    return (np.lexsort((late, early, src, dst, level_of[src])),
            np.lexsort((late, early, src, dst)))


def get_core(graph: TimingGraph) -> CoreArrays:
    """The graph's cached :class:`CoreArrays`, building it on first use.

    Thread-safe in the benign sense: concurrent first calls may build
    twice and one result wins, exactly like the graph's other lazy
    caches.  Forked workers inherit an already-built core for free.
    Derived graphs (:func:`repro.sta.incremental.apply_delay_updates`,
    session clones) arrive with a pre-planted core that shares the
    parent's :class:`CoreStructure`, so only the value columns differ.
    """
    core = getattr(graph, "_core_arrays", None)
    if core is None:
        with _obs.span("core.build"):
            core = CoreArrays(graph)
        col = _obs.ACTIVE
        if col is not None:
            col.add("core.builds")
            col.add("core.edges", core.num_edges)
            col.add("core.levels", core.num_levels)
        graph._core_arrays = core
    else:
        col = _obs.ACTIVE
        if col is not None:
            col.add("core.reuses")
    return core
