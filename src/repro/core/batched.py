"""Batched propagation: one ``(D + 2, n)`` sweep for every family.

The engine's ``D + 2`` candidate passes differ only in their *inputs*:
the level passes (``paths_at_level``, ``d = 0 .. D-1``) in the
grouping column and the per-FF launch offset, the self-loop (row
``D``) and primary-input (row ``D + 1``) passes in their one-group
launch seeds.  A grouped pass whose seeds all share one group *is* the
single-tuple pass (``docs/PROOFS.md`` L7).  Topology, edge schedule,
delays and the deviation-cost formula are shared, so instead of
``D + 2`` forward sweeps this module relaxes each topological level
bucket for all rows at once.  The dual-tuple state is *stacked* — one
``(2(D + 2), n_pins)`` matrix per component, best-tuple rows first and
different-group-fallback rows after them, exposed as row-range views —
so each gather, candidate computation, and segment reduction is ONE
numpy call for both halves of all rows.  That matters because at
realistic ``D`` the sweep is dispatch-bound, not bandwidth-bound.

Segment reductions avoid per-segment ``reduceat`` dispatch where
geometry allows: ragged destination segments are duplicate-padded to a
dense ``(rows, nseg, w)`` block (``_bucket_pads``) and reduced along
the last axis.  Padding repeats a segment's *first* edge index, which
never changes a ``max``/``min``, and in the argmin-recovery pass the
duplicate carries that first edge's slot — already the segment's
smallest candidate — so tie-breaks are unchanged.  Buckets whose
destinations provably still hold their initial empty state (a static
scan over the bucket order, also in ``_bucket_pads``) skip the merge
tournament entirely and scatter the batch summary directly.

Because the batch axis multiplies every per-element cost by ``D``, the
sweep keeps the per-element work small:

* no pair expansion — each edge offers two candidate slots (its
  source's best and fallback tuple).  Instead of interleaving them into
  a ``(D, 2m)`` matrix, the best-tuple and fallback-tuple halves are
  reduced separately over the edge-granularity segments
  (``estarts``/``eseg``) and merged per segment.  The contract's winner
  is recovered exactly: the earlier edge wins (edges ascend by
  from-pin), and on an equal-edge tie the smaller group wins (both
  slots of one edge share a from-pin, so a best/fallback time tie
  leaves only the group to compare) — see ``_first_at``;
* ``int32`` from-pin/group state — pin and group ids are well inside
  32 bits, so four of the six state matrices (and all slot-index
  scratch) carry half the memory traffic.  Indexing a row yields the
  same Python ints the scalar reference holds;
* the per-FF launch and capture columns are built once and cached on
  the graph.

Bit-for-bit equivalence with the scalar reference
(:func:`repro.cppr.propagation.propagate_dual`, one standalone pass per
level ``d``, and :func:`~repro.cppr.propagation.propagate_single` for
rows ``D`` and ``D + 1``) holds because every row of the batched state
computes exactly what that pass computes:

* seeds — ``(clock arrival + clk-to-q) ∓ launch offset`` with the same
  association, where row ``D``'s offset is ``credit(launch FF)``, and
  each primary input's own arrival in row ``D + 1``; assigned directly
  (Q pins are distinct per flip-flop and primary-input pins per port,
  so no seed merge is needed);
* relaxation — level order is topological order and the tuple state is
  order-independent (see :mod:`repro.core.propagate`), so relaxing a
  whole :class:`~repro.core.arrays.LevelBucket` at once lands where the
  scalar per-offer rule does.  Candidate times are the same two-operand
  ``t + delay``; ``max``/``min`` segment reductions are exact, and the
  two-half argmin merge recovers the (time, from-pin, group) tie-break
  winner (see above);
* the element-wise dual-state combine (``_combine_dual_batched``)
  processes every segment with a validity guard instead of filtering
  active segments per row (activity differs across rows); invalid
  batches provably leave the row's state untouched;
* deviation costs — the three-operation column formula of
  :class:`~repro.core.propagate.FastDeviation`, evaluated once as a
  ``(D + 2, m)`` matrix.

The result object serves each row back as the ordinary arrival arrays
(dual for a level, single for rows ``D`` and ``D + 1``) with their
:class:`~repro.core.propagate.FastDeviation`, so the deviation search
and everything downstream are reused unchanged.  The columns are
zero-copy ``memoryview`` rows of the sweep matrices, not lists: a
family's search reads only the pins it walks, far fewer than ``n``.
The capture seeds come from the same columns: the first family to ask
computes every row's seed slacks in one numpy pass
(:meth:`BatchedLevels.capture_seeds`), with the per-FF loop's float
operations in its order, so each family only builds its seed list.
The seed columns live on the batch, which lives for one query.

The same stacking generalizes along a second axis:
:func:`propagate_dual_batched_corners` fuses ``C`` delay corners that
share one :class:`~repro.core.arrays.CoreStructure` into a single
``(C * 2(D + 2), n)`` sweep — corner ``c``'s rows are exactly the
state its standalone sweep would hold, per-bucket delays broadcast
from a ``(C, m)`` stack, and the result is served back as ``C``
ordinary :class:`BatchedLevels` slices.  See ``docs/MCMM.md``.

Observability: building emits one ``propagate.batched`` span with
``grouping`` / ``seeds`` / ``sweep`` / ``deviation_costs`` children,
the same ``propagation.seeds`` / ``propagation.pins_visited`` totals
the ``D + 2`` separate passes would have emitted (rows without seeds
contribute zero to both, exactly like their skipped passes), and a
per-row breakdown under ``batched.seeds.<row>`` /
``batched.pins_visited.<row>`` for ``level[d]``, ``self_loop`` and
``primary_input``.
"""

from __future__ import annotations

import numpy as np

from repro import faults
from repro.circuit.graph import TimingGraph
from repro.core.arrays import get_core
from repro.core.grouping import group_matrix, tree_lift
from repro.core.propagate import FastDeviation, _beats, _lex_beats
from repro.cppr.tuples import NO_GROUP, NO_NODE
from repro.obs import collector as _obs
from repro.sta.modes import AnalysisMode

__all__ = ["BatchedLevels", "propagate_dual_batched",
           "propagate_dual_batched_corners"]

_INF = float("inf")


class BatchedLevels:
    """The batched sweep's result: per-row views over shared matrices.

    ``time0 .. group1`` are the ``(D + 2, n_pins)`` dual-tuple
    matrices and ``cost0`` the ``(D + 2, m_fanin)`` deviation-cost
    matrix; each row is exactly what its standalone scalar pass would
    produce (level ``d < D``, self-loop ``D``, primary input ``D + 1``).
    ``num_levels`` (``D``), ``groupings`` and the ``(D, n_ff)``
    ``group_matrix`` cover the level rows only.  :meth:`arrays` serves
    one row as the arrival arrays the deviation search consumes, and
    :meth:`capture_seeds` the row's capture seeds.
    """

    __slots__ = ("mode", "num_levels", "groupings", "seed_counts",
                 "group_matrix", "time0", "from0", "group0", "time1",
                 "from1", "group1", "cost0", "fanin_ptr", "fanin_src",
                 "fanin_delay", "_captures")

    def __init__(self, mode, num_levels, groupings, seed_counts,
                 group_matrix, time0, from0, group0, time1, from1,
                 group1, cost0, fanin_ptr, fanin_src,
                 fanin_delay) -> None:
        self.mode = mode
        self.num_levels = num_levels
        self.groupings = groupings
        self.seed_counts = seed_counts
        self.group_matrix = group_matrix
        self.time0 = time0
        self.from0 = from0
        self.group0 = group0
        self.time1 = time1
        self.from1 = from1
        self.group1 = group1
        self.cost0 = cost0
        self.fanin_ptr = fanin_ptr
        self.fanin_src = fanin_src
        self.fanin_delay = fanin_delay
        self._captures = None

    def grouping(self, level: int):
        """The level's :class:`~repro.cppr.grouping.LevelGrouping`."""
        return self.groupings[level]

    def num_seeds(self, row: int) -> int:
        """Launch seeds of ``row`` (participating flip-flops at a level,
        all flip-flops in row ``D``, all primary inputs in ``D + 1``)."""
        return self.seed_counts[row]

    def arrays(self, row: int):
        """Row ``row`` as ordinary arrival arrays.

        Dual arrays for a level; rows ``D`` and ``D + 1`` hold one
        group, so their primary tuple is the whole answer and they are
        served as single arrays.  Every column is a read-only
        ``memoryview`` of its sweep-matrix row: no copy, and indexing
        yields the same Python ``float``/``int`` a list would hold.  The
        views alias the matrices, so a write raises instead of
        corrupting the other families' rows (sessions, which rewrite
        columns in place, keep their own lists).
        """
        from repro.cppr.propagation import (DualArrivalArrays,
                                            SingleArrivalArrays)

        def view(matrix):
            return memoryview(matrix[row]).toreadonly()

        fast = FastDeviation(self.fanin_ptr, self.fanin_src,
                             self.fanin_delay, view(self.cost0))
        if row >= self.num_levels:
            return SingleArrivalArrays(self.mode, view(self.time0),
                                       view(self.from0), fast=fast)
        return DualArrivalArrays(
            self.mode, view(self.time0), view(self.from0),
            view(self.group0), view(self.time1), view(self.from1),
            view(self.group1), fast=fast)

    def capture_seeds(self, row: int, analyzer) -> list:
        """Row ``row``'s capture seeds, one per reached flip-flop.

        The same :class:`~repro.cppr.deviation.CaptureSeed` list, in
        flip-flop order and with bit-equal slacks, that the per-FF loop
        :func:`repro.cppr.level_paths.level_capture_seeds` builds over
        :meth:`arrays`.  The first call computes every row's seeds in
        one pass (:meth:`_capture_columns`) and keeps them on this
        batch; ``analyzer`` must be the one whose graph was swept.
        """
        from repro.cppr.deviation import CaptureSeed

        graph = analyzer.graph
        period = analyzer.constraints.clock_period
        captures = self._captures
        if (captures is None or captures[0] is not graph
                or captures[1] != period):
            captures = self._captures = (
                graph, period, *self._capture_columns(graph, period))
        _graph, _period, valid, slack, group, d_pin = captures
        ffs = np.flatnonzero(valid[row])
        return list(map(CaptureSeed, slack[row, ffs].tolist(),
                        d_pin[ffs].tolist(), group[row, ffs].tolist(),
                        ffs.tolist()))

    def _capture_columns(self, graph: TimingGraph, clock_period):
        """Every row's capture seeds: ``(valid, slack, group, d_pin)``.

        ``valid[r, f]`` says whether flip-flop ``f`` seeds row ``r``'s
        search, with slack ``slack[r, f]``, excluding ``group[r, f]``.
        Entry by entry this is the per-FF loop: at a level, a
        participating flip-flop queries ``at_auto(D pin, capture
        group)`` — the primary tuple, or the fallback where the primary
        tuple's group *is* the capture group; rows ``D`` and ``D + 1``
        exclude no group (``NO_GROUP``), so every flip-flop reads the
        primary tuple.  An empty answer skips the flip-flop.  The slack
        is the same float operations in the same order:
        ``((at_early + period) - t_setup) - t`` for setup,
        ``t - (at_late + t_hold)`` for hold.
        """
        _q, _ck, node, _ce, _cl, d_pin, t_setup, t_hold = \
            _ff_columns(graph)
        levels = self.num_levels
        gm = self.group_matrix
        empty = self.mode.empty_time
        t0 = self.time0[:, d_pin]
        t = t0.copy()
        t[:levels] = np.where(self.group0[:levels, d_pin] == gm,
                              self.time1[:levels, d_pin], t0[:levels])
        valid = (t0 != empty) & (t != empty)
        valid[:levels] &= gm >= 0
        group = np.full(t0.shape, NO_GROUP, dtype=gm.dtype)
        group[:levels] = gm
        tree = graph.clock_tree
        with np.errstate(invalid="ignore"):
            if self.mode.is_setup:
                at = np.asarray(tree._at_early, dtype=np.float64)[node]
                slack = (at + clock_period - t_setup) - t
            else:
                at = np.asarray(tree._at_late, dtype=np.float64)[node]
                slack = t - (at + t_hold)
        return valid, slack, group, d_pin


def _combine_dual_batched(state, levels, empty, is_setup, upd,
                          b0t, b0f, b0g, b1t, b1f, b1g, virgin):
    """Merge one bucket's per-segment batch summary into the state.

    The union of two ``(best, fallback)`` summaries is again summarized
    by its lexicographic best plus the most pessimistic of the three
    remaining tuples whose group differs from the new best's — every
    discarded candidate is dominated by one of them: candidates sharing
    the losing best's group by that best, all others by that side's
    fallback.

    ``state`` is the stacked ``(timeS, fromS, groupS)`` matrices —
    the first ``levels`` rows the best tuple, the rest the fallback —
    so each current-state gather is one numpy call for both halves.
    ``upd`` holds the bucket's distinct destination pins (columns);
    the batch summaries are ``(levels, len(upd))``.  Activity differs per
    row, so every segment is processed and a per-element ``bvalid``
    guard masks segments whose batch is empty for that row:
    with ``bvalid`` false the best keeps the current tuple, the losing
    "best" entering the fallback tournament is the empty batch best
    (never valid), and the row's own fallback wins its slot back, so
    the state is preserved exactly.

    ``virgin`` is the statically precomputed guarantee (see
    :func:`_bucket_pads`) that the destination columns still hold
    their initial empty state, making the merge a direct scatter.
    """
    timeS, fromS, groupS = state
    bvalid = b0t != empty
    if virgin:
        # Virgin destinations: the merge against all-empty state is the
        # batch summary itself.  The batch fallback is valid exactly
        # where non-empty and always differs from the batch best's
        # group, so it needs no re-masking.
        timeS[:levels, upd] = b0t
        fromS[:levels, upd] = np.where(bvalid, b0f, NO_NODE)
        groupS[:levels, upd] = np.where(bvalid, b0g, NO_GROUP)
        timeS[levels:, upd] = b1t
        fromS[levels:, upd] = b1f
        groupS[levels:, upd] = b1g
        return
    ctS = timeS[:, upd]
    cfS = fromS[:, upd]
    cgS = groupS[:, upd]
    c0t, c1t = ctS[:levels], ctS[levels:]
    c0f, c1f = cfS[:levels], cfS[levels:]
    c0g, c1g = cgS[:levels], cgS[levels:]
    bwin = bvalid & _lex_beats(is_setup, b0t, b0f, b0g, c0t, c0f, c0g)
    n0t = np.where(bwin, b0t, c0t)
    n0f = np.where(bwin, b0f, c0f)
    n0g = np.where(bwin, b0g, c0g)
    # Fallback tournament: losing best, then each side's fallback.
    rt = np.where(bwin, c0t, b0t)
    rf = np.where(bwin, c0f, b0f)
    rg = np.where(bwin, c0g, b0g)
    rv = (rt != empty) & (rg != n0g)
    for xt, xf, xg in ((c1t, c1f, c1g), (b1t, b1f, b1g)):
        xv = (xt != empty) & (xg != n0g)
        take = (xv & ~rv) | (xv & rv
                             & _lex_beats(is_setup, xt, xf, xg,
                                          rt, rf, rg))
        rt = np.where(take, xt, rt)
        rf = np.where(take, xf, rf)
        rg = np.where(take, xg, rg)
        rv = rv | xv
    timeS[:levels, upd] = n0t
    fromS[:levels, upd] = n0f
    groupS[:levels, upd] = n0g
    timeS[levels:, upd] = np.where(rv, rt, empty)
    fromS[levels:, upd] = np.where(rv, rf, NO_NODE)
    groupS[levels:, upd] = np.where(rv, rg, NO_GROUP)


def _first_at(t, g, bt, eseg, slots, sentinel, seg_min):
    """Earliest edge slot per segment achieving the extremum ``bt``.

    Returns ``(first, idx, group_at_idx)`` where ``first`` is the edge
    index, or ``sentinel`` (= the edge count) for segments in which
    this half never reaches ``bt``; the group is gathered at the
    clamped index and is garbage exactly where ``first`` is the
    sentinel (callers mask those via the sentinel comparison or the
    batch-validity guard).
    """
    pos = np.where(t == bt[:, eseg], slots, sentinel)
    first = seg_min(pos)
    idx = np.minimum(first, sentinel - 1)
    return first, idx, np.take_along_axis(g, idx, axis=1)


def _build_groupings(tree, gm, om):
    """Wrap the matrix rows as cached LevelGrouping objects.

    Rows are exactly what ``group_for_level(tree, d, n, "array")``
    computes, so they populate (and reuse) the tree's ``(level,
    "array")`` grouping cache.
    """
    from repro.cppr.grouping import LevelGrouping

    cache = tree._group_cache
    groupings = []
    for level in range(gm.shape[0]):
        key = (level, "array")
        grouping = cache.get(key)
        if grouping is None:
            grouping = LevelGrouping(level, gm[level].tolist(),
                                     om[level].tolist())
            cache[key] = grouping
        groupings.append(grouping)
    return groupings


def _bucket_pads(graph: TimingGraph, core):
    """Per-bucket padded-gather geometry, built once per graph.

    ``reduceat`` over ragged segments pays per-segment ufunc dispatch;
    a dense ``(D, nseg, w)`` axis reduction is far cheaper.  Each
    segment is padded to the bucket's widest segment ``w`` by
    *repeating its own first edge index* — duplicates of an element
    never change a ``max``/``min`` (the reduction still returns one of
    the segment's original IEEE-754 values, and in the argmin recovery
    the duplicate carries the first edge's original slot index, which
    is already the segment's minimum candidate) — so the padded
    reduction is bit-for-bit the reduceat result.

    Pad entries are ``None`` for single-segment buckets (they never
    reduce) and for buckets where padding would more than double the
    work (``w * nseg > 2 * m``); those keep the reduceat path.

    Each entry also carries the bucket's static *virginity*: whether
    its destination columns are guaranteed to still hold their initial
    empty state when the bucket combines — true unless a destination
    is a (potentially seeded) flip-flop Q pin or primary-input pin or
    was already a destination of an earlier bucket.  This is
    conservative (an earlier bucket may have been skipped as all-empty
    at run time); non-virgin buckets take the full merge, which handles
    empty state correctly either way.
    """
    pads = getattr(graph, "_batched_pads", None)
    if pads is None:
        written = np.zeros(core.num_pins, dtype=bool)
        written[_ff_columns(graph)[0]] = True
        written[[pi.pin for pi in graph.primary_inputs]] = True
        pads = []
        for b in core.level_buckets:
            virgin = not written[b.seg_dst].any()
            written[b.seg_dst] = True
            m = len(b.src)
            nseg = len(b.seg_dst)
            if nseg == m:
                pads.append((None, virgin))
                continue
            estarts = np.asarray(b.estarts, dtype=np.intp)
            sizes = np.append(estarts[1:], m) - estarts
            w = int(sizes.max())
            if w * nseg > 2 * m:
                pads.append((None, virgin))
                continue
            offs = np.arange(w, dtype=np.intp)
            idx = np.where(offs[None, :] >= sizes[:, None],
                           estarts[:, None],
                           estarts[:, None] + offs[None, :])
            pads.append(((idx.ravel(), nseg, w), virgin))
        graph._batched_pads = pads
    return pads


def _ff_columns(graph: TimingGraph):
    """Per-FF launch and capture columns, built once, cached on the graph.

    ``(q_pin, ck_pin, tree_node, clk_to_q_early, clk_to_q_late, d_pin,
    t_setup, t_hold)``, indexed by flip-flop.
    """
    cols = getattr(graph, "_batched_ff_columns", None)
    if cols is None:
        num_ffs = graph.num_ffs
        q_pin = np.empty(num_ffs, dtype=np.int64)
        ck_pin = np.empty(num_ffs, dtype=np.int64)
        node = np.empty(num_ffs, dtype=np.int64)
        ctq_early = np.empty(num_ffs, dtype=np.float64)
        ctq_late = np.empty(num_ffs, dtype=np.float64)
        d_pin = np.empty(num_ffs, dtype=np.int64)
        t_setup = np.empty(num_ffs, dtype=np.float64)
        t_hold = np.empty(num_ffs, dtype=np.float64)
        for ff in graph.ffs:
            i = ff.index
            q_pin[i] = ff.q_pin
            ck_pin[i] = ff.ck_pin
            node[i] = ff.tree_node
            ctq_early[i] = ff.clk_to_q_early
            ctq_late[i] = ff.clk_to_q_late
            d_pin[i] = ff.d_pin
            t_setup[i] = ff.t_setup
            t_hold[i] = ff.t_hold
        cols = (q_pin, ck_pin, node, ctq_early, ctq_late, d_pin, t_setup,
                t_hold)
        graph._batched_ff_columns = cols
    return cols


def _sweep(graph: TimingGraph, cores, state, R, empty, is_setup) -> None:
    """Relax every level bucket over the stacked dual-tuple state.

    ``state`` stacks ``C = len(cores)`` corners of ``R`` rows each, so
    each row half holds ``C * R`` rows.  A bucket's candidate matrix is
    the gathered source state plus each corner's edge delays: the
    ``(C, m)`` delay rows broadcast against a ``(2, C, R, m)`` view, so
    every corner block sees exactly its own ``timeS[:, src] + delay``
    element-wise adds.  Everything after that — segment geometry,
    reductions, argmin recovery, the dual-state combine — is row-count
    agnostic.
    """
    timeS, fromS, groupS = state
    C = len(cores)
    levels = C * R
    core = cores[0]
    reduce_best = np.maximum.reduceat if is_setup else np.minimum.reduceat
    pick_best = np.maximum if is_setup else np.minimum
    slots_cache: dict[int, np.ndarray] = {}
    pads = _bucket_pads(graph, core)
    for bi, b in enumerate(core.level_buckets):
        pad, virgin = pads[bi]
        src = b.src
        m = len(src)
        if is_setup:
            delays = np.stack([c.level_buckets[bi].late for c in cores])
        else:
            delays = np.stack([c.level_buckets[bi].early for c in cores])
        tS = (timeS[:, src].reshape(2, C, R, m)
              + delays[None, :, None, :]).reshape(2 * levels, m)
        ta, tb = tS[:levels], tS[levels:]
        # Buckets whose sources carry no fallback state yet
        # (common near the launch seeds) skip the whole
        # fallback half: with every B slot empty the merged
        # best is the A-side result and every B-side
        # candidate loses its tie-break or validity guard.
        has_b = (tb != empty).any()
        src32 = src.astype(np.int32)
        if len(b.seg_dst) == m:
            # Every destination has exactly one edge in this
            # bucket, so the segment extremum degenerates to
            # the edge's two-slot tournament (pessimistic
            # time first, then smaller group), applied
            # element-wise with no reductions or argmin
            # recovery at all.
            if not has_b:
                if not (ta != empty).any():
                    continue
                ga = groupS[:levels, src]
                _combine_dual_batched(
                    state, levels, empty, is_setup,
                    b.seg_dst, ta, src32, ga,
                    empty, NO_NODE, NO_GROUP, virgin)
                continue
            gS = groupS[:, src]
            ga, gb = gS[:levels], gS[levels:]
            useb = (_beats(is_setup, tb, ta)
                    | ((tb == ta) & (gb < ga)))
            bt = np.where(useb, tb, ta)
            if not (bt != empty).any():
                continue
            bg = np.where(useb, gb, ga)
            # The losing slot is the fallback iff its group
            # differs (the winner's group is ``bg`` itself).
            ft = np.where(ga != gb,
                          np.where(useb, ta, tb), empty)
            has_fb = ft != empty
            fallback_f = np.where(has_fb, src32, NO_NODE)
            fallback_g = np.where(
                has_fb, np.where(useb, ga, gb), NO_GROUP)
            _combine_dual_batched(state, levels, empty,
                                  is_setup, b.seg_dst,
                                  bt, src32, bg,
                                  ft, fallback_f, fallback_g,
                                  virgin)
            continue
        estarts = b.estarts
        if pad is not None:
            # Duplicate-padded dense reduction (see
            # _bucket_pads): same values, no per-segment
            # reduceat dispatch.
            pad_idx, nseg, w = pad
            if is_setup:
                def seg_best(x):
                    return x[:, pad_idx].reshape(
                        len(x), nseg, w).max(axis=2)
            else:
                def seg_best(x):
                    return x[:, pad_idx].reshape(
                        len(x), nseg, w).min(axis=2)

            def seg_min(x):
                return x[:, pad_idx].reshape(
                    len(x), nseg, w).min(axis=2)
        else:
            def seg_best(x):
                return reduce_best(x, estarts, axis=1)

            def seg_min(x):
                return np.minimum.reduceat(x, estarts,
                                           axis=1)
        slots = slots_cache.get(m)
        if slots is None:
            slots = slots_cache[m] = np.arange(
                m, dtype=np.int32)
        sentinel = np.int32(m)
        eseg = b.eseg
        if not has_b:
            bt = seg_best(ta)
            if not (bt != empty).any():
                continue
            ga = groupS[:levels, src]
            _fa, ia, gaw = _first_at(ta, ga, bt, eseg,
                                     slots, sentinel, seg_min)
            bf = src32[ia]
            bg = gaw
            t2a = np.where(ga != bg[:, eseg], ta, empty)
            ft = seg_best(t2a)
            if not (ft != empty).any():
                _combine_dual_batched(
                    state, levels, empty, is_setup,
                    b.seg_dst, bt, bf, bg,
                    empty, NO_NODE, NO_GROUP, virgin)
                continue
            _fa, ia, gaw = _first_at(t2a, ga, ft, eseg,
                                     slots, sentinel, seg_min)
            has_fb = ft != empty
            fallback_f = np.where(has_fb, src32[ia], NO_NODE)
            fallback_g = np.where(has_fb, gaw, NO_GROUP)
            _combine_dual_batched(state, levels, empty,
                                  is_setup, b.seg_dst,
                                  bt, bf, bg,
                                  ft, fallback_f, fallback_g,
                                  virgin)
            continue
        # Both halves reduce and argmin-recover in single
        # stacked calls; the (2, levels, m) reshape views let
        # the per-half extremum broadcast without a tiled copy.
        btS = seg_best(tS)
        bt = pick_best(btS[:levels], btS[levels:])
        if not (bt != empty).any():
            continue
        gS = groupS[:, src]
        tS3 = tS.reshape(2, levels, m)
        pos = np.where(tS3 == bt[:, eseg][None], slots,
                       sentinel).reshape(2 * levels, m)
        first = seg_min(pos)
        idx = np.minimum(first, sentinel - 1)
        gw = np.take_along_axis(gS, idx, axis=1)
        fa, fb = first[:levels], first[levels:]
        gaw, gbw = gw[:levels], gw[levels:]
        useb = (fb < fa) | ((fb == fa) & (gbw < gaw))
        bf = src32[np.where(useb, idx[levels:], idx[:levels])]
        bg = np.where(useb, gbw, gaw)
        # Batch fallback: most pessimistic slot in a group
        # different from the batch best's.
        t2S = np.where(gS.reshape(2, levels, m)
                       != bg[:, eseg][None],
                       tS3, empty).reshape(2 * levels, m)
        ftS = seg_best(t2S)
        ft = pick_best(ftS[:levels], ftS[levels:])
        if not (ft != empty).any():
            # No segment produced a different-group
            # fallback anywhere: skip the argmin recovery.
            _combine_dual_batched(
                state, levels, empty, is_setup,
                b.seg_dst, bt, bf, bg,
                empty, NO_NODE, NO_GROUP, virgin)
            continue
        pos = np.where(t2S.reshape(2, levels, m)
                       == ft[:, eseg][None], slots,
                       sentinel).reshape(2 * levels, m)
        first = seg_min(pos)
        idx = np.minimum(first, sentinel - 1)
        gw = np.take_along_axis(gS, idx, axis=1)
        fa, fb = first[:levels], first[levels:]
        gaw, gbw = gw[:levels], gw[levels:]
        useb = (fb < fa) | ((fb == fa) & (gbw < gaw))
        has_fb = ft != empty
        fallback_f = np.where(
            has_fb,
            src32[np.where(useb, idx[levels:], idx[:levels])],
            NO_NODE)
        fallback_g = np.where(
            has_fb, np.where(useb, gbw, gaw), NO_GROUP)
        _combine_dual_batched(state, levels, empty, is_setup,
                              b.seg_dst, bt, bf, bg,
                              ft, fallback_f, fallback_g,
                              virgin)


def propagate_dual_batched(graph: TimingGraph,
                           mode: AnalysisMode) -> BatchedLevels:
    """Run every family's forward pass in one sweep.

    The single-corner case of :func:`propagate_dual_batched_corners`.
    """
    return propagate_dual_batched_corners([graph], mode)[0]


def propagate_dual_batched_corners(graphs, mode: AnalysisMode
                                   ) -> list:
    """Run every family's forward pass for ``C`` corners in ONE sweep.

    ``graphs`` are the corner-realized graphs: same topology, one
    shared :class:`~repro.core.arrays.CoreStructure`, per-corner
    :class:`~repro.core.arrays.CoreValues` columns and clock trees (a
    single graph is the ``C = 1`` case).  With ``R = D + 2`` rows per
    corner the dual-tuple state is stacked a second time — ``(2 * C *
    R, n)`` with corner ``c``'s row-``r`` best tuple at ``c * R + r`` —
    so the whole multi-corner analysis pays *one* grouping-matrix
    application, one relaxation per level bucket, and one
    deviation-cost pass instead of ``C`` of each.  Per-bucket edge
    delays broadcast through a ``(2, C, R, m)`` reshape view, and
    per-corner fanin delays through a ``(C, R, m_fanin)`` view, so every
    corner's rows see the element-wise IEEE-754 operation sequence of a
    ``C = 1`` build of that corner alone — the returned list of
    per-corner :class:`BatchedLevels` (row-slice views into the stacked
    matrices) is bit-for-bit what ``C`` independent builds would
    produce.

    Counters: one ``batched.builds``, ``batched.corners`` = ``C``,
    ``batched.levels`` = ``C * D`` (the stacked level rows), seed/visit
    totals over all rows and per-row breakdowns summed across corners.
    """
    mode = AnalysisMode.coerce(mode)
    faults.check("numpy.import")
    base = graphs[0]
    cores = [get_core(g) for g in graphs]
    structure = cores[0].structure
    for c in cores[1:]:
        if c.structure is not structure:
            raise ValueError(
                "corner graphs must share one CoreStructure; realize "
                "corners with repro.corners.CornerSet.realize")
    C = len(graphs)
    D = base.clock_tree.num_levels
    R = D + 2
    rows = C * R
    n = base.num_pins
    num_ffs = base.num_ffs
    empty = mode.empty_time
    is_setup = mode.is_setup

    with _obs.span("propagate.batched"):
        with _obs.span("grouping"):
            # gm is a pure function of the (shared) tree topology —
            # identical across corners — while om carries each corner's
            # credits; calling group_matrix per tree also populates the
            # lifting/grouping caches paths_at_level reads later.
            gms, oms, groupings = [], [], []
            for g in graphs:
                gm, om = group_matrix(g.clock_tree, num_ffs)
                gms.append(gm)
                oms.append(om)
                groupings.append(_build_groupings(g.clock_tree, gm, om))

        with _obs.span("seeds"):
            q_pin, ck_pin, node, ctq_early, ctq_late, *_ = \
                _ff_columns(base)
            clk_to_q = ctq_late if is_setup else ctq_early
            # Every corner graph shares the base's port records.
            pis = base.primary_inputs
            pi_pin = np.array([pi.pin for pi in pis], dtype=np.int64)
            pi_time = np.array([pi.at_late if is_setup else pi.at_early
                                for pi in pis], dtype=np.float64)
            timeS = np.full((2 * rows, n), empty, dtype=np.float64)
            fromS = np.full((2 * rows, n), NO_NODE, dtype=np.int32)
            groupS = np.full((2 * rows, n), NO_GROUP, dtype=np.int32)
            time0, time1 = timeS[:rows], timeS[rows:]
            from0, from1 = fromS[:rows], fromS[rows:]
            group0, group1 = groupS[:rows], groupS[rows:]
            state = (timeS, fromS, groupS)

            seed_counts = np.zeros((C, R), dtype=np.int64)
            for ci, g in enumerate(graphs):
                tree = g.clock_tree
                gm, om = gms[ci], oms[ci]
                at = np.asarray(
                    tree._at_late if is_setup else tree._at_early,
                    dtype=np.float64)
                base_t = at[node] + clk_to_q
                q_time = base_t - om if is_setup else base_t + om
                part = gm >= 0
                r, cols = np.nonzero(part)
                top = ci * R
                time0[top + r, q_pin[cols]] = q_time[r, cols]
                from0[top + r, q_pin[cols]] = ck_pin[cols]
                group0[top + r, q_pin[cols]] = gm[r, cols]
                seed_counts[ci, :D] = part.sum(axis=1)
                # Row D: every flip-flop, offset by its own credit.
                # Row D + 1: every primary input at its arrival.  Both
                # rows seed one group (0), so no fallback ever forms.
                credit = tree_lift(tree).credits[node]
                time0[top + D, q_pin] = (base_t - credit if is_setup
                                         else base_t + credit)
                from0[top + D, q_pin] = ck_pin
                group0[top + D, q_pin] = 0
                time0[top + D + 1, pi_pin] = pi_time
                group0[top + D + 1, pi_pin] = 0
                seed_counts[ci, D:] = (num_ffs, len(pis))
            num_seeds = int(seed_counts.sum())

        with _obs.span("sweep"):
            if num_seeds:
                _sweep(base, cores, state, R, empty, is_setup)

        with _obs.span("deviation_costs"):
            mf = len(structure.fanin_dst)
            with np.errstate(invalid="ignore"):
                if is_setup:
                    cost0 = time0[:, structure.fanin_dst]
                    np.subtract(cost0, time0[:, structure.fanin_src],
                                out=cost0)
                    lates = np.stack([c.values.fanin_late
                                      for c in cores])
                    c3 = cost0.reshape(C, R, mf)
                    np.subtract(c3, lates[:, None, :], out=c3)
                    delay_lists = [c.values.fanin_late_list
                                   for c in cores]
                else:
                    cost0 = time0[:, structure.fanin_src]
                    earlies = np.stack([c.values.fanin_early
                                        for c in cores])
                    c3 = cost0.reshape(C, R, mf)
                    np.add(c3, earlies[:, None, :], out=c3)
                    np.subtract(cost0, time0[:, structure.fanin_dst],
                                out=cost0)
                    delay_lists = [c.values.fanin_early_list
                                   for c in cores]
            np.nan_to_num(cost0, copy=False,
                          nan=_INF, posinf=_INF, neginf=_INF)

    col = _obs.ACTIVE
    if col is not None:
        visited = (time0 != empty).sum(axis=1).reshape(C, R)
        col.add("batched.builds")
        col.add("batched.corners", C)
        col.add("batched.levels", C * D)
        col.add("propagation.seeds", num_seeds)
        col.add("propagation.pins_visited", int(visited.sum()))
        row_seeds = seed_counts.sum(axis=0).tolist()
        row_visited = visited.sum(axis=0).tolist()
        names = [f"level[{level}]" for level in range(D)]
        names += ["self_loop", "primary_input"]
        for name, seeds, pins in zip(names, row_seeds, row_visited):
            col.add(f"batched.seeds.{name}", seeds)
            col.add(f"batched.pins_visited.{name}", pins)

    results = []
    for ci in range(C):
        lo, hi = ci * R, (ci + 1) * R
        results.append(BatchedLevels(
            mode, D, groupings[ci], seed_counts[ci].tolist(), gms[ci],
            time0[lo:hi], from0[lo:hi], group0[lo:hi],
            time1[lo:hi], from1[lo:hi], group1[lo:hi],
            cost0[lo:hi], structure.fanin_ptr_list,
            structure.fanin_src_list, delay_lists[ci]))
    return results
