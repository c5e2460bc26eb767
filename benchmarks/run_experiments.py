#!/usr/bin/env python3
"""Regenerate every table and figure of the paper's evaluation section.

Usage::

    python benchmarks/run_experiments.py all            # everything
    python benchmarks/run_experiments.py table4 --quick # small matrix
    python benchmarks/run_experiments.py fig5 --scale 0.5

Subcommands: ``table3``, ``table4``, ``fig5``, ``fig6``, ``ablation``,
``backend``, ``incremental``, ``faults``, ``parallel``, ``corners``,
``profile``, ``obs``, ``all`` — several may be given at once
(``backend faults``).  Results
are printed as markdown and also written under ``benchmarks/results/``;
``profile`` additionally writes the machine-readable
``benchmarks/results/BENCH_profile.json`` (per-pass wall time +
counters per design), ``backend`` writes ``BENCH_backend.json``
(including the scalar-vs-array report-identity check),
``incremental`` writes
``BENCH_incremental.json`` (warm ECO sessions vs from-scratch rebuilds
on leon2 — hard-fails unless sessions are >= 3x faster at <= 1% dirty
with bit-identical reports), ``faults`` writes ``BENCH_faults.json``
(clean-path overhead of the resilient scheduler, capped at 3%, plus
chaos report-identity checks), ``parallel`` writes
``BENCH_parallel.json`` (fork process-pool scaling at 1-4
workers on leon2 plus the executor x substrate report-identity
matrix — the >= 2.5x speedup gate hard-fails on machines with >= 4
CPUs), ``corners`` writes ``BENCH_corners.json`` (one fused
multi-corner analysis vs C independent runs at C in {1, 2, 4} on
leon2, per-corner reports bit-identical, fused C=4 gated at >= 2.5x
on the array backend), and ``obs`` writes ``BENCH_obs.json``
(collector-armed vs disarmed wall time, capped at 2%) so the numbers
stay comparable across PRs.  ``repro bench-check`` compares the whole
``BENCH_*.json`` family against a rolling baseline and fails on
regressions.

Measurement methodology (mirrors the paper's Table IV):

* one *run* = top-k post-CPPR paths for the setup AND the hold test;
* runtime is wall-clock without tracing; memory is a separate run under
  ``tracemalloc`` (interpreter heap peak — the Python analogue of RSS);
* ``RTR``/``MemR`` columns are each timer's value divided by ours
  (8-worker ours is the 1.00 baseline when present, as in the paper).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from harness import (get_analyzer, make_timer,  # noqa: E402
                     per_pass_seconds, profiled_run, propagate_seconds,
                     run_both_modes, write_bench_profile)

from repro import CpprEngine, CpprOptions, PairEnumTimer  # noqa: E402
from repro.cppr.parallel import available_executors  # noqa: E402
from repro.utils.measure import (measure_memory,  # noqa: E402
                                 measure_runtime)
from repro.workloads.stats import design_statistics  # noqa: E402
from repro.workloads.suite import design_names  # noqa: E402

RESULTS_DIR = Path(__file__).parent / "results"

TABLE4_TIMERS = ["ours", "ours-mt", "pair_enum", "block_based",
                 "branch_bound"]
TIMER_LABELS = {
    "ours": "Ours (1 worker)",
    "ours-mt": "Ours (8 workers)",
    "pair_enum": "PairEnum (OpenTimer-class)",
    "block_based": "BlockBased (HappyTimer-class)",
    "branch_bound": "BranchBound (iTimerC-class)",
}


def _emit(lines: list[str], filename: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    text = "\n".join(lines) + "\n"
    (RESULTS_DIR / filename).write_text(text)
    print(text)


def _measure(fn, with_memory: bool = True, timer=None,
             repeat: int = 1) -> tuple[float, float | None]:
    """Runtime then (optionally) tracemalloc peak of one call.

    When ``timer`` is given, its memoized-query cache is dropped before
    every measured call so both measurements do the full analysis
    instead of replaying the first run's cached result.  ``repeat``
    takes the best of several timed calls for noise-sensitive steps.
    """
    def call():
        clear = getattr(timer, "clear_cache", None)
        if clear is not None:
            clear()
        return fn()

    seconds = measure_runtime(call, repeat=repeat).seconds
    peak = measure_memory(call).peak_mib if with_memory else None
    return seconds, peak


# ----------------------------------------------------------------------
# Table III
# ----------------------------------------------------------------------
def run_table3(args) -> None:
    lines = ["# Table III — benchmark statistics (scaled suite)", "",
             "| Benchmark | #Edges | #FFs | D | #FFs/D | FF connectivity |",
             "|---|---:|---:|---:|---:|---:|"]
    for design in args.designs:
        stats = design_statistics(get_analyzer(design, args.scale).graph)
        lines.append(
            f"| {stats.name} | {stats.num_edges} | {stats.num_ffs} | "
            f"{stats.num_levels} | {stats.ffs_per_level:.2f} | "
            f"{stats.ff_connectivity:.2f} |")
    _emit(lines, "table3.md")


# ----------------------------------------------------------------------
# Table IV
# ----------------------------------------------------------------------
def run_table4(args) -> None:
    import os
    cpus = (len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    timers = [t for t in TABLE4_TIMERS
              if t != "ours-mt"
              or ("process" in available_executors() and cpus > 1)]
    lines = ["# Table IV — runtime (s) and peak memory (MiB), "
             "setup + hold per run", "",
             "| Benchmark | k | " + " | ".join(
                 f"{TIMER_LABELS[t]} RT / Mem / RTR" for t in timers)
             + " |",
             "|---|---:|" + "---|" * len(timers)]
    for design in args.designs:
        analyzer = get_analyzer(design, args.scale)
        for k in args.k_values:
            cells = []
            results: dict[str, tuple[float, float | None]] = {}
            for timer_name in timers:
                timer = make_timer(timer_name, analyzer)
                seconds, peak = _measure(
                    lambda t=timer: run_both_modes(t, k),
                    with_memory=not args.no_memory, timer=timer)
                results[timer_name] = (seconds, peak)
            base = results["ours"][0]
            for timer_name in timers:
                seconds, peak = results[timer_name]
                mem = f"{peak:.1f}" if peak is not None else "-"
                cells.append(f"{seconds:.2f} / {mem} / "
                             f"{seconds / base:.2f}x")
            lines.append(f"| {design} | {k} | " + " | ".join(cells) + " |")
            print(f"[table4] {design} k={k} done", file=sys.stderr)
    _emit(lines, "table4.md")


# ----------------------------------------------------------------------
# Figure 5
# ----------------------------------------------------------------------
def run_fig5(args) -> None:
    design = "leon2"
    analyzer = get_analyzer(design, args.scale)
    timers = ["ours", "pair_enum", "block_based", "branch_bound"]
    lines = [f"# Figure 5 — runtime and memory vs k on {design} "
             f"(setup analysis)", "",
             "| k | " + " | ".join(
                 f"{TIMER_LABELS[t]} RT(s) / Mem(MiB)" for t in timers)
             + " |",
             "|---:|" + "---|" * len(timers)]
    for k in args.k_sweep:
        cells = []
        for timer_name in timers:
            timer = make_timer(timer_name, analyzer)
            seconds, peak = _measure(
                lambda t=timer: t.top_slacks(k, "setup"),
                with_memory=not args.no_memory, timer=timer)
            mem = f"{peak:.1f}" if peak is not None else "-"
            cells.append(f"{seconds:.2f} / {mem}")
        lines.append(f"| {k} | " + " | ".join(cells) + " |")
        print(f"[fig5] k={k} done", file=sys.stderr)
    _emit(lines, "fig5.md")


# ----------------------------------------------------------------------
# Figure 6
# ----------------------------------------------------------------------
def run_fig6(args) -> None:
    if "process" not in available_executors():
        print("fig6 skipped: no fork support", file=sys.stderr)
        return
    design = "leon2"
    k = 100
    analyzer = get_analyzer(design, args.scale)
    lines = [f"# Figure 6 — runtime vs workers, k={k} on {design} "
             f"(setup analysis; fork-process workers)", "",
             "| workers | Ours RT(s) | PairEnum RT(s) |",
             "|---:|---:|---:|"]
    for workers in args.workers_sweep:
        ours = CpprEngine(analyzer, CpprOptions(
            executor="process" if workers > 1 else "serial",
            workers=workers))
        pair = PairEnumTimer(
            analyzer, executor="process" if workers > 1 else "serial",
            workers=workers)
        ours_s = measure_runtime(
            lambda: ours.top_slacks(k, "setup")).seconds
        pair_s = measure_runtime(
            lambda: pair.top_slacks(k, "setup")).seconds
        lines.append(f"| {workers} | {ours_s:.2f} | {pair_s:.2f} |")
        print(f"[fig6] workers={workers} done", file=sys.stderr)
    _emit(lines, "fig6.md")


# ----------------------------------------------------------------------
# Ablations
# ----------------------------------------------------------------------
def run_ablation(args) -> None:
    design = "combo4v2"
    k = 200
    analyzer = get_analyzer(design, args.scale)
    lines = [f"# Ablations on {design} (k={k}, setup analysis)", ""]

    bounded = CpprEngine(analyzer)
    unbounded = CpprEngine(analyzer, CpprOptions(heap_capacity=1_000_000))
    b_s, b_m = _measure(lambda: bounded.top_slacks(k, "setup"),
                        timer=bounded)
    u_s, u_m = _measure(lambda: unbounded.top_slacks(k, "setup"),
                        timer=unbounded)
    lines += ["## A2 — bounded min-max heap (Algorithm 5)", "",
              "| variant | RT(s) | peak MiB |", "|---|---:|---:|",
              f"| heap capacity = k | {b_s:.3f} | {b_m:.1f} |",
              f"| heap unbounded | {u_s:.3f} | {u_m:.1f} |", ""]

    import random
    from repro.ds.binary_lifting import AncestorTable
    rng = random.Random(3)
    parents = [-1]
    for _level in range(1, 64):
        start = len(parents)
        for _ in range(8):
            parents.append(rng.randrange(max(0, start - 8), start))
    table = AncestorTable(parents)
    n = len(parents)
    queries = [(rng.randrange(n), rng.randrange(n)) for _ in range(20000)]

    def naive_lca(u, v):
        ancestors = set()
        while u != -1:
            ancestors.add(u)
            u = parents[u]
        while v not in ancestors:
            v = parents[v]
        return v

    fast_s = measure_runtime(
        lambda: sum(table.lca(u, v) for u, v in queries)).seconds
    naive_s = measure_runtime(
        lambda: sum(naive_lca(u, v) for u, v in queries)).seconds
    lines += ["## A3 — binary lifting vs parent walking "
              "(20k LCA queries, depth-64 tree)", "",
              "| variant | RT(s) |", "|---|---:|",
              f"| binary lifting | {fast_s:.3f} |",
              f"| naive walk | {naive_s:.3f} |", ""]

    if "process" in available_executors():
        leon = get_analyzer("leon2", args.scale)
        serial = CpprEngine(leon)
        par = CpprEngine(leon, CpprOptions(executor="process", workers=4))
        s_s = measure_runtime(lambda: serial.top_slacks(k, "setup")).seconds
        p_s = measure_runtime(lambda: par.top_slacks(k, "setup")).seconds
        lines += ["## A4 — level parallelism on leon2", "",
                  "| variant | RT(s) |", "|---|---:|",
                  f"| serial | {s_s:.3f} |",
                  f"| 4 fork workers | {p_s:.3f} |", ""]

    _emit(lines, "ablation.md")


# ----------------------------------------------------------------------
# Backend dimension: scalar reference vs numpy array substrate
# ----------------------------------------------------------------------
def _path_fingerprint(paths) -> list[tuple]:
    return [(p.slack, tuple(p.pins), p.launch_ff, p.capture_ff,
             p.credit, p.family.name, p.level) for p in paths]


def run_backend(args) -> None:
    k = max(args.k_values)
    payload = {
        "schema": "repro.bench/backend@1",
        "scale": args.scale,
        "k": k,
        "mode": "setup",
        "designs": {},
    }
    lines = [f"# Backend — scalar vs array substrate, k={k}, "
             "setup analysis, serial executor", "",
             "| Benchmark | scalar RT(s) | array RT(s) | speedup | "
             "scalar propagate(s) | array propagate(s) | "
             "propagate speedup |",
             "|---|---:|---:|---:|---:|---:|---:|"]
    for design in args.designs:
        analyzer = get_analyzer(design, args.scale)
        per_backend = {}
        fingerprints = {}
        for backend in ("scalar", "array"):
            engine = make_timer(f"ours-{backend}", analyzer)
            engine.top_slacks(1, "setup")  # warm lazy caches (CSR etc.)
            seconds, _ = _measure(
                lambda e=engine: e.top_slacks(k, "setup"),
                with_memory=False, timer=engine)
            _traced_seconds, profile = profiled_run(engine, k, "setup")
            per_backend[backend] = {
                "seconds": seconds,
                "propagate_seconds": propagate_seconds(profile),
                "counters": profile.counters,
            }
            engine.clear_cache()
            fingerprints[backend] = {
                mode: _path_fingerprint(engine.top_paths(k, mode))
                for mode in ("setup", "hold")
            }
        if fingerprints["scalar"] != fingerprints["array"]:
            raise SystemExit(
                f"[backend] MISMATCH on {design}: array top-{k} reports "
                f"differ from the scalar reference")
        scalar, array = per_backend["scalar"], per_backend["array"]
        speedup = scalar["seconds"] / array["seconds"]
        prop_speedup = (scalar["propagate_seconds"]
                        / array["propagate_seconds"])
        payload["designs"][design] = {
            "scalar": scalar, "array": array,
            "speedup": speedup, "propagate_speedup": prop_speedup,
            "reports_identical": True,
        }
        lines.append(
            f"| {design} | {scalar['seconds']:.3f} | "
            f"{array['seconds']:.3f} | {speedup:.2f}x | "
            f"{scalar['propagate_seconds']:.3f} | "
            f"{array['propagate_seconds']:.3f} | {prop_speedup:.2f}x |")
        print(f"[backend] {design} done ({speedup:.2f}x overall, "
              f"{prop_speedup:.2f}x propagate)", file=sys.stderr)
    RESULTS_DIR.mkdir(exist_ok=True)
    write_bench_profile(RESULTS_DIR / "BENCH_backend.json", payload)
    print(f"[backend] wrote {RESULTS_DIR / 'BENCH_backend.json'}",
          file=sys.stderr)
    _emit(lines, "backend.md")


# ----------------------------------------------------------------------
# Faults (clean-path overhead of the resilience layer + chaos identity)
# ----------------------------------------------------------------------
def run_faults(args) -> None:
    import warnings

    from repro import DegradedResultWarning, faults

    k = max(args.k_values)
    budget_pct = 3.0
    payload = {
        "schema": "repro.bench/faults@1",
        "scale": args.scale,
        "k": k,
        "mode": "setup",
        "overhead_budget_pct": budget_pct,
        "designs": {},
    }
    lines = [f"# Faults — clean-path overhead of the resilient "
             f"scheduler, k={k}, setup analysis, serial executor", "",
             "| Benchmark | raw RT(s) | resilient RT(s) | overhead | "
             "reports | chaos reports |",
             "|---|---:|---:|---:|---|---|"]
    for design in args.designs:
        analyzer = get_analyzer(design, args.scale)
        engines = {"raw": make_timer("ours-raw", analyzer),
                   "resilient": make_timer("ours", analyzer)}
        for engine in engines.values():
            engine.top_slacks(1, "setup")  # warm lazy caches (CSR etc.)
        # Interleave the timed calls (raw, resilient, raw, ...) so CPU
        # frequency drift over the measurement window biases neither
        # variant; a sequential best-of can report phantom overheads
        # (or savings) of several percent on identical code paths.
        per: dict = {variant: None for variant in engines}
        for _ in range(5):
            for variant, engine in engines.items():
                engine.clear_cache()
                seconds = measure_runtime(
                    lambda e=engine: e.top_slacks(k, "setup")).seconds
                if per[variant] is None or seconds < per[variant]:
                    per[variant] = seconds
        fingerprints = {}
        for variant, engine in engines.items():
            engine.clear_cache()
            fingerprints[variant] = {
                mode: _path_fingerprint(engine.top_paths(k, mode))
                for mode in ("setup", "hold")
            }
        if fingerprints["raw"] != fingerprints["resilient"]:
            raise SystemExit(
                f"[faults] MISMATCH on {design}: the resilient "
                f"scheduler changed the top-{k} reports")
        # Chaos identity: a run that actually recovers from injected
        # faults must still reproduce the raw report exactly.
        # The faults fire in whichever query reaches them first, so the
        # degradation events are counted over both queries.
        chaos_engine = make_timer("ours", analyzer)
        chaos, chaos_events = {}, 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            with faults.inject("task.exception:times=1",
                               "memory.pressure:times=1,after=1"):
                for mode in ("setup", "hold"):
                    chaos[mode] = _path_fingerprint(
                        chaos_engine.top_paths(k, mode))
                    chaos_events += len(chaos_engine.last_degraded)
        if chaos_events == 0:
            raise SystemExit(
                f"[faults] NO FAULT FIRED on {design}: the chaos run "
                f"recorded no degradation event")
        if chaos != fingerprints["raw"]:
            raise SystemExit(
                f"[faults] MISMATCH on {design}: recovery from "
                f"injected faults changed the top-{k} reports")
        overhead_pct = (per["resilient"] / per["raw"] - 1.0) * 100.0
        payload["designs"][design] = {
            "raw_seconds": per["raw"],
            "resilient_seconds": per["resilient"],
            "overhead_pct": overhead_pct,
            "reports_identical": True,
            "chaos_reports_identical": True,
            "chaos_events": chaos_events,
        }
        lines.append(
            f"| {design} | {per['raw']:.3f} | {per['resilient']:.3f} | "
            f"{overhead_pct:+.2f}% | identical | identical |")
        print(f"[faults] {design} done ({overhead_pct:+.2f}% overhead)",
              file=sys.stderr)
        if overhead_pct > budget_pct:
            raise SystemExit(
                f"[faults] OVERHEAD on {design}: resilient scheduler "
                f"costs {overhead_pct:.2f}% on the clean path "
                f"(budget {budget_pct:.1f}%)")
    RESULTS_DIR.mkdir(exist_ok=True)
    write_bench_profile(RESULTS_DIR / "BENCH_faults.json", payload)
    print(f"[faults] wrote {RESULTS_DIR / 'BENCH_faults.json'}",
          file=sys.stderr)
    _emit(lines, "faults.md")


# ----------------------------------------------------------------------
# Incremental (ECO sessions vs from-scratch re-analysis)
# ----------------------------------------------------------------------
def run_incremental(args) -> None:
    """ECO loop on leon2: a warm session absorbs batches of delay
    edits and must beat rebuilding the engine from scratch by >= 3x
    while reproducing its top-k reports bit for bit."""
    import random
    import time

    from harness import competitive_edit_pool, pick_eco_batch

    from repro import CpprEngine, TimingAnalyzer
    from repro.sta.incremental import apply_delay_updates

    design = "leon2"  # the paper's densest benchmark; dirty cones
    #                   under the 0.1% cap only exist at real scale
    rounds, batch_size, k = 5, 8, 50
    min_speedup, dirty_budget = 3.0, 0.01
    payload = {
        "schema": "repro.bench/incremental@1",
        "scale": args.scale,
        "design": design,
        "rounds": rounds,
        "edits_per_round": batch_size,
        "k": k,
        "min_speedup": min_speedup,
        "dirty_budget": dirty_budget,
        "per_round": [],
    }
    lines = [f"# Incremental — warm ECO session vs from-scratch "
             f"rebuild, {design}, {rounds} rounds x {batch_size} "
             f"delay edits, k={k}, setup+hold", "",
             "| Round | dirty | families kept | dropped | "
             "session(s) | scratch(s) | speedup | reports |",
             "|---:|---:|---:|---:|---:|---:|---:|---|"]

    analyzer = get_analyzer(design, args.scale)
    session = CpprEngine(analyzer).session()
    t0 = time.perf_counter()
    session.top_paths(k, "setup")
    session.top_paths(k, "hold")
    payload["warm_seconds"] = time.perf_counter() - t0
    pool = competitive_edit_pool(analyzer)
    payload["edit_pool_size"] = len(pool)
    print(f"[incremental] {design}: {len(pool)} competitive "
          f"small-cone edges", file=sys.stderr)

    rng = random.Random(7)
    fresh_graph = analyzer.graph
    total_inc = total_scratch = 0.0
    dirty_fractions = []
    for rnd in range(rounds):
        batch = pick_eco_batch(session.graph, pool, rng, batch_size)
        t0 = time.perf_counter()
        summary = session.update(delays=batch)
        inc = {mode: session.top_paths(k, mode)
               for mode in ("setup", "hold")}
        inc_seconds = time.perf_counter() - t0
        # Reference: the same cumulative edits applied functionally,
        # analyzed by a brand-new engine (what an ECO loop without
        # sessions would have to do every iteration).
        fresh_graph = apply_delay_updates(fresh_graph, batch)
        t0 = time.perf_counter()
        engine = CpprEngine(TimingAnalyzer(fresh_graph,
                                           analyzer.constraints))
        scratch = {mode: engine.top_paths(k, mode)
                   for mode in ("setup", "hold")}
        scratch_seconds = time.perf_counter() - t0
        identical = all(_path_fingerprint(inc[mode])
                        == _path_fingerprint(scratch[mode])
                        for mode in ("setup", "hold"))
        if not identical:
            raise SystemExit(
                f"[incremental] MISMATCH on {design} round {rnd}: "
                f"the session's top-{k} reports differ from a "
                f"from-scratch rebuild")
        total_inc += inc_seconds
        total_scratch += scratch_seconds
        dirty_fractions.append(summary["dirty_fraction"])
        speedup = scratch_seconds / inc_seconds
        payload["per_round"].append({
            "edits": len(batch),
            "dirty_fraction": summary["dirty_fraction"],
            "families_kept": summary["families_kept"],
            "families_dropped": summary["families_dropped"],
            "session_seconds": inc_seconds,
            "scratch_seconds": scratch_seconds,
            "speedup": speedup,
            "reports_identical": True,
        })
        lines.append(
            f"| {rnd} | {summary['dirty_fraction']:.4%} | "
            f"{summary['families_kept']} | "
            f"{summary['families_dropped']} | {inc_seconds:.3f} | "
            f"{scratch_seconds:.3f} | {speedup:.1f}x | identical |")
        print(f"[incremental] round {rnd}: "
              f"dirty={summary['dirty_fraction']:.4%} "
              f"kept={summary['families_kept']} "
              f"speedup={speedup:.1f}x", file=sys.stderr)
    total_speedup = total_scratch / total_inc
    mean_dirty = sum(dirty_fractions) / len(dirty_fractions)
    payload["total_speedup"] = total_speedup
    payload["mean_dirty_fraction"] = mean_dirty
    lines += ["", f"Total: {total_scratch:.3f}s from scratch vs "
                  f"{total_inc:.3f}s in-session — "
                  f"**{total_speedup:.2f}x** at "
                  f"{mean_dirty:.4%} mean dirty fraction."]
    if mean_dirty <= dirty_budget and total_speedup < min_speedup:
        raise SystemExit(
            f"[incremental] TOO SLOW on {design}: {total_speedup:.2f}x "
            f"at {mean_dirty:.4%} mean dirty fraction (sessions must "
            f"be >= {min_speedup:.0f}x faster than from-scratch "
            f"rebuilds when under {dirty_budget:.0%} of the design "
            f"is dirty)")
    RESULTS_DIR.mkdir(exist_ok=True)
    write_bench_profile(RESULTS_DIR / "BENCH_incremental.json", payload)
    print(f"[incremental] wrote "
          f"{RESULTS_DIR / 'BENCH_incremental.json'}", file=sys.stderr)
    _emit(lines, "incremental.md")


# ----------------------------------------------------------------------
# Profile (observability trajectory)
# ----------------------------------------------------------------------
def run_profile(args) -> None:
    k = max(args.k_values)
    payload = {
        "schema": "repro.bench/profile@1",
        "scale": args.scale,
        "k": k,
        "mode": "setup",
        "designs": {},
    }
    lines = [f"# Profile — per-pass wall time (s), k={k}, setup analysis",
             "",
             "| Benchmark | total | slowest pass | passes | counters |",
             "|---|---:|---|---:|---:|"]
    for design in args.designs:
        analyzer = get_analyzer(design, args.scale)
        engine = make_timer("ours", analyzer)
        seconds, profile = profiled_run(engine, k, "setup")
        passes = per_pass_seconds(profile)
        slowest = (max(passes, key=passes.get) if passes else "-")
        payload["designs"][design] = {
            "seconds": seconds,
            "per_pass_seconds": passes,
            "counters": profile.counters,
            "profile": profile.to_dict(),
        }
        lines.append(f"| {design} | {seconds:.3f} | {slowest} | "
                     f"{len(passes)} | {len(profile.counters)} |")
        print(f"[profile] {design} done", file=sys.stderr)
    RESULTS_DIR.mkdir(exist_ok=True)
    write_bench_profile(RESULTS_DIR / "BENCH_profile.json", payload)
    print(f"[profile] wrote {RESULTS_DIR / 'BENCH_profile.json'}",
          file=sys.stderr)
    _emit(lines, "profile.md")


# ----------------------------------------------------------------------
# Parallel (process sharding: scaling + executor identity)
# ----------------------------------------------------------------------
def run_parallel(args) -> None:
    """Process sharding: scaling and the identity matrix.

    Two gates on leon2.  First, every executor x substrate combination
    (serial/thread/process x scalar/array) must reproduce the
    first combination's top-k reports bit for bit — the descriptor
    path may never change an answer.  Second, the process pool at 1-4
    workers is timed against the serial baseline; on a machine where
    real scaling is possible (>= 4 effective CPUs and fork support) the
    4-worker run must be >= 2.5x faster
    than serial, and the ``gate_enforced`` flag in the payload records
    whether that hard gate applied.  Speedups always feed the
    ``repro bench-check`` rolling baseline either way.
    """
    import os

    design = "leon2"
    k = 100  # pinned (Figure 6's protocol) so the speedup baselines
    #          stay comparable across --quick and full invocations
    min_speedup = 2.5
    cpus = (len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    have_fork = "process" in available_executors()
    gate_enforced = have_fork and cpus >= 4
    analyzer = get_analyzer(design, args.scale)
    payload = {
        "schema": "repro.bench/parallel@1",
        "scale": args.scale,
        "k": k,
        "design": design,
        "cpus": cpus,
        "min_speedup": min_speedup,
        "gate_enforced": gate_enforced,
        "identity": {},
        "scaling": {},
    }

    configs = {
        "scalar": {"backend": "scalar"},
        "array": {"backend": "array"},
    }
    executors = [name for name in ("serial", "thread", "process")
                 if name in available_executors()]
    reference = None
    combos = 0
    for config_name, config in configs.items():
        for executor in executors:
            engine = CpprEngine(analyzer, CpprOptions(
                executor=executor, workers=4, **config))
            fingerprint = {
                mode: _path_fingerprint(engine.top_paths(k, mode))
                for mode in ("setup", "hold")
            }
            if reference is None:
                reference = fingerprint
            elif fingerprint != reference:
                raise SystemExit(
                    f"[parallel] MISMATCH on {design}: "
                    f"{executor}/{config_name} top-{k} reports differ "
                    f"from the {executors[0]}/scalar reference")
            combos += 1
        print(f"[parallel] identity {config_name} x "
              f"{'/'.join(executors)} ok", file=sys.stderr)
    payload["identity"] = {"combos": combos, "reports_identical": True}

    lines = [f"# Parallel — process sharding on {design}, "
             f"k={k}, setup + hold per run", "",
             f"Identity: {combos} executor x substrate combinations, "
             f"reports bit-identical.", "",
             "| configuration | RT(s) | speedup | resolved workers |",
             "|---|---:|---:|---:|"]
    serial = CpprEngine(analyzer)
    serial_seconds, _ = _measure(
        lambda: run_both_modes(serial, k), with_memory=False,
        timer=serial, repeat=3)
    payload["scaling"]["serial"] = {"seconds": serial_seconds}
    lines.append(f"| serial | {serial_seconds:.3f} | 1.00x | 1 |")
    print(f"[parallel] serial {serial_seconds:.3f}s", file=sys.stderr)
    speedup_at_4 = None
    for workers in (1, 2, 4):
        engine = CpprEngine(analyzer, CpprOptions(
            executor="process" if have_fork else "thread",
            workers=workers))
        seconds, _ = _measure(
            lambda e=engine: run_both_modes(e, k), with_memory=False,
            timer=engine, repeat=3)
        speedup = serial_seconds / seconds
        if workers == 4:
            speedup_at_4 = speedup
        payload["scaling"][f"workers{workers}"] = {
            "seconds": seconds,
            "speedup": speedup,
            "resolved_workers": engine.resolved_workers,
        }
        lines.append(f"| process x{workers} | {seconds:.3f} | "
                     f"{speedup:.2f}x | {engine.resolved_workers} |")
        print(f"[parallel] workers={workers} {seconds:.3f}s "
              f"({speedup:.2f}x)", file=sys.stderr)
    lines += ["", f"{cpus} effective CPUs; >= {min_speedup:.1f}x gate "
                  + ("ENFORCED" if gate_enforced else "not enforced "
                     "(needs >= 4 CPUs and fork)")
                  + "."]
    if gate_enforced and speedup_at_4 < min_speedup:
        raise SystemExit(
            f"[parallel] TOO SLOW on {design}: {speedup_at_4:.2f}x at "
            f"4 process workers (the process pool must deliver >= "
            f"{min_speedup:.1f}x over serial on a >= 4-CPU machine)")
    RESULTS_DIR.mkdir(exist_ok=True)
    write_bench_profile(RESULTS_DIR / "BENCH_parallel.json", payload)
    print(f"[parallel] wrote {RESULTS_DIR / 'BENCH_parallel.json'}",
          file=sys.stderr)
    _emit(lines, "parallel.md")


# ----------------------------------------------------------------------
# Corners (one fused multi-corner analysis vs C independent runs)
# ----------------------------------------------------------------------
def _bench_corner_set(graph, count: int):
    """``typ`` plus ``count - 1`` deterministic derate corners.

    Each extra corner rescales a fixed-seed sample of data edges
    (+-40%) and a few clock-tree branches (+-20%) — the shape of a
    process/voltage corner: same netlist, different delays.  Pin and
    clock-node ids are stable across rebuilds of the same suite
    design, so one corner set serves both the fused engine and the
    rebuilt-per-corner independent runs.
    """
    import random

    from repro.corners import Corner, CornerSet
    from repro.sta.incremental import DelayUpdate

    edges = [(u, v, e, l) for u in range(graph.num_pins)
             for (v, e, l) in graph.fanout[u]]
    tree = graph.clock_tree
    non_root = list(range(1, len(tree.names)))
    corners = [Corner("typ")]
    for i in range(count - 1):
        rng = random.Random(9300 + i)
        delays = []
        for u, v, early, late in rng.sample(edges,
                                            min(500, len(edges))):
            a = early * rng.uniform(0.6, 1.4)
            b = late * rng.uniform(0.6, 1.4)
            delays.append(DelayUpdate(u, v, min(a, b), max(a, b)))
        clock = {}
        for node in rng.sample(non_root, min(4, len(non_root))):
            a = tree.delays_early[node] * rng.uniform(0.8, 1.2)
            b = tree.delays_late[node] * rng.uniform(0.8, 1.2)
            clock[tree.names[node]] = (min(a, b), max(a, b))
        corners.append(Corner(f"pvt{i}", delays, clock))
    return CornerSet(corners)


def run_corners(args) -> None:
    """The fused multi-corner engine vs C independent sign-off runs.

    Real sign-off repeats the whole analysis once per delay corner;
    the fused engine pays structure, grouping, propagation machinery
    and the task fan-out once for all corners (``docs/MCMM.md``).
    This step measures both, end to end (design build + analyzer +
    engine + top-k query per corner), at ``C in {1, 2, 4}`` on leon2
    — and first pins the per-corner reports bit-identical between the
    fused engine and the loop, both modes.  On the array backend at
    full scale the fused ``C=4`` run must be >= 2.5x faster than four
    independent runs; ``gate_enforced`` records whether that hard gate
    applied.
    """
    import gc

    from repro import TimingAnalyzer
    from repro.corners import CornerSet
    from repro.workloads.suite import build_design

    design = "leon2"
    k = 10  # sign-off-style shortlist; the fused win is amortization,
    #         not k-dependent search work
    min_speedup = 2.5
    try:
        import numpy  # noqa: F401
        backend = "array"
    except ImportError:
        backend = "scalar"
    # The fused win is fixed-cost amortization, so the ratio shrinks
    # with the design: the >= 2.5x contract is pinned to full-scale
    # leon2 (scaled-down smokes still run the identity matrix).
    gate_enforced = backend == "array" and args.scale >= 1.0
    # Corner deltas reference stable pin/clock-node ids, so one
    # throwaway build serves every (re)built graph below; nothing big
    # may outlive this block — the measured runs are end-to-end cold,
    # and long-lived analyzer caches would skew their allocations.
    graph0, _ = build_design(design, scale=args.scale)
    corner_sets = {count: _bench_corner_set(graph0, count)
                   for count in (1, 2, 4)}
    del graph0
    payload = {
        "schema": "repro.bench/corners@1",
        "scale": args.scale,
        "k": k,
        "mode": "setup",
        "design": design,
        "backend": backend,
        "min_speedup": min_speedup,
        "gate_enforced": gate_enforced,
        "counts": {},
    }
    lines = [f"# Corners — one fused multi-corner analysis vs C "
             f"independent runs on {design}, k={k}, setup, "
             f"{backend} backend", "",
             "| C | independent RT(s) | fused RT(s) | speedup | "
             "reports |",
             "|---:|---:|---:|---:|---|"]

    def fused_run(count, mode="setup"):
        graph, constraints = build_design(design, scale=args.scale)
        engine = CpprEngine(TimingAnalyzer(graph, constraints),
                            CpprOptions(backend=backend,
                                        corners=corner_sets[count]))
        return engine.top_paths_by_corner(k, mode)

    def independent_run(count, mode="setup"):
        out = {}
        for corner in corner_sets[count]:
            graph, constraints = build_design(design, scale=args.scale)
            analyzer = TimingAnalyzer(graph, constraints)
            realized = CornerSet([corner]).realize(analyzer, backend)
            engine = CpprEngine(realized[corner.name],
                                CpprOptions(backend=backend))
            out[corner.name] = engine.top_paths(k, mode)
        return out

    speedup_at_4 = None
    for count, corners in corner_sets.items():
        # Identity first, on the exact measured protocol: one fused
        # end-to-end run vs the independent loop, per-corner reports
        # compared fingerprint-for-fingerprint (hold too at C=4; the
        # setup rows double as a warm-up for the timed runs below, and
        # everything is dropped again before timing).
        modes = ("setup", "hold") if count == 4 else ("setup",)
        for mode in modes:
            fused = {name: _path_fingerprint(paths) for name, paths
                     in fused_run(count, mode).items()}
            want = {name: _path_fingerprint(paths) for name, paths
                    in independent_run(count, mode).items()}
            for name in corners.names:
                if fused[name] != want[name]:
                    raise SystemExit(
                        f"[corners] MISMATCH on {design}: fused C={count} "
                        f"top-{k} {mode} report for corner '{name}' "
                        f"differs from its independent run")
        gc.collect()
        # Best-of-5: both sides are end-to-end cold runs, so single
        # timings carry allocator/page-fault noise the memoized-query
        # steps never see.
        ind_seconds, _ = _measure(lambda c=count: independent_run(c),
                                  with_memory=False, repeat=5)
        fus_seconds, _ = _measure(lambda c=count: fused_run(c),
                                  with_memory=False, repeat=5)
        speedup = ind_seconds / fus_seconds
        if count == 4:
            speedup_at_4 = speedup
        payload["counts"][f"c{count}"] = {
            "independent_seconds": ind_seconds,
            "fused_seconds": fus_seconds,
            "speedup": speedup,
            "reports_identical": True,
        }
        lines.append(f"| {count} | {ind_seconds:.3f} | "
                     f"{fus_seconds:.3f} | {speedup:.2f}x | "
                     f"identical |")
        print(f"[corners] C={count} independent {ind_seconds:.3f}s "
              f"fused {fus_seconds:.3f}s ({speedup:.2f}x)",
              file=sys.stderr)
    lines += ["", f">= {min_speedup:.1f}x gate at C=4 "
                  + ("ENFORCED" if gate_enforced else "not enforced "
                     "(needs the array backend and full scale)") + "."]
    if gate_enforced and speedup_at_4 < min_speedup:
        raise SystemExit(
            f"[corners] TOO SLOW on {design}: fused C=4 is only "
            f"{speedup_at_4:.2f}x faster than 4 independent runs "
            f"(the fused sweep must deliver >= {min_speedup:.1f}x)")
    RESULTS_DIR.mkdir(exist_ok=True)
    write_bench_profile(RESULTS_DIR / "BENCH_corners.json", payload)
    print(f"[corners] wrote {RESULTS_DIR / 'BENCH_corners.json'}",
          file=sys.stderr)
    _emit(lines, "corners.md")


# ----------------------------------------------------------------------
# Obs (instrumentation overhead of the observability plane)
# ----------------------------------------------------------------------
def run_ingest(args) -> None:
    """Frontend ingestion cost: Yosys JSON + SDF to a served query.

    Measures the three phases a cold ``repro report netlist.json --sdf
    delays.sdf`` pays before the first answer — parse (JSON + SDF text
    into syntax objects), build (annotation, elaboration, and corner
    extraction via :func:`repro.io.load_design`), and the first
    uncached top-k query — on the committed counter fixture plus a
    synthetic register chain large enough for stable wall times.
    """
    import json

    from repro import CpprEngine, CpprOptions, TimingAnalyzer
    from repro.io.frontend import load_design
    from repro.io.sdf import parse_sdf
    from repro.io.yosys_json import parse_yosys_json

    k = max(args.k_values)
    stages = 200 if args.quick else 1000
    payload = {
        "schema": "repro.bench/ingest@1",
        "scale": args.scale,
        "k": k,
        "designs": {},
    }
    lines = [f"# Ingest — frontend cost to first answer, k={k}", "",
             "| Design | cells | parse(s) | build(s) | "
             "first query(s) |",
             "|---|---|---|---|---|"]

    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        chain_json = Path(tmp) / "chain.json"
        chain_sdf = Path(tmp) / "chain.sdf"
        chain_json.write_text(_synthetic_chain_json(stages))
        chain_sdf.write_text(_synthetic_chain_sdf(stages))
        cases = [
            ("counter", "tests/io/fixtures/counter.json",
             "tests/io/fixtures/counter.sdf"),
            (f"chain{stages}", str(chain_json), str(chain_sdf)),
        ]
        for name, netlist, sdf in cases:
            netlist_text = Path(netlist).read_text()
            sdf_text = Path(sdf).read_text()

            def parse_both():
                parse_yosys_json(netlist_text, path=netlist)
                parse_sdf(sdf_text, path=sdf)

            parse_seconds, _ = _measure(parse_both, with_memory=False,
                                        repeat=3)
            build_seconds, _ = _measure(
                lambda: load_design(netlist, sdf=sdf,
                                    sdf_corners=True),
                with_memory=False, repeat=3)
            imported = load_design(netlist, sdf=sdf, sdf_corners=True)

            def first_query():
                engine = CpprEngine(
                    TimingAnalyzer(imported.graph,
                                   imported.constraints),
                    CpprOptions(corners=imported.corners))
                return engine.top_paths_by_corner(k, "setup")

            query_seconds, _ = _measure(first_query, with_memory=False,
                                        repeat=3)
            module, _meta = parse_yosys_json(netlist_text, path=netlist)
            payload["designs"][name] = {
                "cells": len(module.instances),
                "corners": list(imported.corners.names),
                "parse_seconds": parse_seconds,
                "build_seconds": build_seconds,
                "first_query_seconds": query_seconds,
            }
            lines.append(f"| {name} | {len(module.instances)} | "
                         f"{parse_seconds:.4f} | {build_seconds:.4f} | "
                         f"{query_seconds:.4f} |")

    write_bench_profile(RESULTS_DIR / "BENCH_ingest.json", payload)
    print(f"[ingest] wrote {RESULTS_DIR / 'BENCH_ingest.json'}",
          file=sys.stderr)
    _emit(lines, "ingest.md")
    print(json.dumps(payload, indent=2))


def _synthetic_chain_json(stages: int) -> str:
    """A Yosys-shaped register chain: clk buffer, then ``stages`` of
    inverter + DFF, each stage's Q feeding the next stage's inverter."""
    import json

    bit = iter(range(2, 10 * stages + 100)).__next__
    clk, a = bit(), bit()
    clk_buf = bit()
    cells = {"cb": {"type": "$_BUF_",
                    "connections": {"A": [clk], "Y": [clk_buf]}}}
    prev = a
    for index in range(stages):
        inv, q = bit(), bit()
        cells[f"g{index}"] = {"type": "$_NOT_",
                              "connections": {"A": [prev], "Y": [inv]}}
        cells[f"ff{index}"] = {
            "type": "$_DFF_P_",
            "connections": {"C": [clk_buf], "D": [inv], "Q": [q]}}
        prev = q
    return json.dumps({"modules": {"chain": {
        "attributes": {"top": 1},
        "ports": {"clk": {"direction": "input", "bits": [clk]},
                  "a": {"direction": "input", "bits": [a]},
                  "y": {"direction": "output", "bits": [prev]}},
        "cells": cells,
        "netnames": {},
    }}})


def _synthetic_chain_sdf(stages: int) -> str:
    """Matching SDF: an IOPATH per cell plus the D/CK interconnects,
    with deterministic per-stage min:typ:max spreads."""
    lines = ['(DELAYFILE', '  (SDFVERSION "3.0")', '  (DESIGN "chain")',
             '  (TIMESCALE 1ns)',
             '  (CELL (CELLTYPE "BUF_X1") (INSTANCE cb)',
             '    (DELAY (ABSOLUTE (IOPATH A0 Y '
             '(0.040:0.050:0.070)))))']
    for index in range(stages):
        base = 0.080 + 0.0001 * (index % 7)
        lines.append(
            f'  (CELL (CELLTYPE "INV_X1") (INSTANCE g{index})\n'
            f'    (DELAY (ABSOLUTE (IOPATH A0 Y '
            f'({base:.4f}:{base + 0.02:.4f}:{base + 0.05:.4f})))))')
        lines.append(
            f'  (CELL (CELLTYPE "DFF_X1") (INSTANCE ff{index})\n'
            f'    (DELAY (ABSOLUTE (IOPATH (posedge CK) Q '
            f'(0.1200:0.1500:0.1900)))))')
    wires = []
    for index in range(stages):
        wires.append(f'      (INTERCONNECT g{index}/Y ff{index}/D '
                     f'(0.0080:0.0100:0.0140))')
        wires.append(f'      (INTERCONNECT cb/Y ff{index}/CK '
                     f'(0.0050:0.0060:0.0080))')
    lines.append('  (CELL (CELLTYPE "chain") (INSTANCE)\n'
                 '    (DELAY (ABSOLUTE\n' + "\n".join(wires) +
                 '\n    )))')
    lines.append(')')
    return "\n".join(lines) + "\n"


def run_obs(args) -> None:
    """Collector-armed vs disarmed wall time on the full analysis.

    The observability plane promises zero cost by default (disarmed
    guard = one module-global load + identity test) and bounded cost
    when armed; this step measures the *armed* overhead — spans,
    labeled metrics, and counters all recording — and hard-fails past
    2%.  Reports must be bit-identical either way.
    """
    from repro.obs import collecting

    k = max(args.k_values)
    budget_pct = 2.0
    payload = {
        "schema": "repro.bench/obs@1",
        "scale": args.scale,
        "k": k,
        "mode": "setup",
        "overhead_budget_pct": budget_pct,
        "designs": {},
    }
    lines = [f"# Obs — instrumentation overhead (collector armed vs "
             f"disarmed), k={k}, setup analysis, serial executor", "",
             "| Benchmark | disarmed RT(s) | collected RT(s) | "
             "overhead | spans | counters | reports |",
             "|---|---:|---:|---:|---:|---:|---|"]
    for design in args.designs:
        analyzer = get_analyzer(design, args.scale)
        engine = make_timer("ours", analyzer)
        engine.top_slacks(1, "setup")  # warm lazy caches (CSR etc.)

        def timed_disarmed(engine=engine, k=k):
            engine.clear_cache()
            return measure_runtime(
                lambda: engine.top_slacks(k, "setup")).seconds

        def timed_collected(engine=engine, k=k):
            engine.clear_cache()

            def call():
                with collecting():
                    engine.top_slacks(k, "setup")

            return measure_runtime(call).seconds

        # Interleave the timed calls (disarmed, collected, disarmed,
        # ...) for the same reason run_faults does: CPU frequency drift
        # over the window must bias neither variant.  Best-of-7 because
        # the 2% budget is tighter than run_faults' 3%.
        per: dict = {"disarmed": None, "collected": None}
        for _ in range(7):
            for variant, fn in (("disarmed", timed_disarmed),
                                ("collected", timed_collected)):
                seconds = fn()
                if per[variant] is None or seconds < per[variant]:
                    per[variant] = seconds
        # Identity: recording spans/metrics must not change the report.
        engine.clear_cache()
        plain = {mode: _path_fingerprint(engine.top_paths(k, mode))
                 for mode in ("setup", "hold")}
        engine.clear_cache()
        with collecting():
            instrumented = {
                mode: _path_fingerprint(engine.top_paths(k, mode))
                for mode in ("setup", "hold")
            }
        if plain != instrumented:
            raise SystemExit(
                f"[obs] MISMATCH on {design}: instrumented top-{k} "
                f"reports differ from the disarmed run")
        profile = engine.last_profile
        span_count = sum(1 for _ in profile.iter_spans())
        counter_count = len(profile.counters)
        overhead_pct = (per["collected"] / per["disarmed"] - 1.0) * 100.0
        payload["designs"][design] = {
            "disarmed_seconds": per["disarmed"],
            "collected_seconds": per["collected"],
            "overhead_pct": overhead_pct,
            "span_count": span_count,
            "counter_count": counter_count,
            "trace_id": engine.last_trace_id,
            "reports_identical": True,
        }
        lines.append(
            f"| {design} | {per['disarmed']:.3f} | "
            f"{per['collected']:.3f} | {overhead_pct:+.2f}% | "
            f"{span_count} | {counter_count} | identical |")
        print(f"[obs] {design} done ({overhead_pct:+.2f}% overhead)",
              file=sys.stderr)
        if overhead_pct > budget_pct:
            raise SystemExit(
                f"[obs] OVERHEAD on {design}: armed instrumentation "
                f"costs {overhead_pct:.2f}% (budget {budget_pct:.1f}%)")
    RESULTS_DIR.mkdir(exist_ok=True)
    write_bench_profile(RESULTS_DIR / "BENCH_obs.json", payload)
    print(f"[obs] wrote {RESULTS_DIR / 'BENCH_obs.json'}",
          file=sys.stderr)
    _emit(lines, "obs.md")


# ----------------------------------------------------------------------
def run_server(args) -> None:
    """The server load benchmark: N clients x M ECO rounds over real
    HTTP, one injected ``server.session_crash`` per round.

    Gates (machine-independent): ``corrupted_pct`` — served 200s that
    differ bit-for-bit from a solo session replaying the same edit
    history — must stay 0.0, and ``recovered_fraction`` — crashed
    sessions restored by verified journal replay — must stay 1.0.
    Latency quantiles are absolute seconds (skipped by the CI
    sentinel's ``--skip-absolute``).
    """
    import json
    import statistics
    import threading
    import time as _time

    from repro import CpprOptions, faults
    from repro.cppr.engine import CpprEngine
    from repro.io.reports import paths_to_dicts
    from repro.server import BackgroundServer, ServerOptions, \
        TimingService
    from repro.sta.timing import TimingAnalyzer
    from repro.workloads.suite import build_design

    clients = 8
    rounds = 3 if args.quick else 5
    k = 10
    design = args.designs[0] if len(args.designs) < len(
        design_names()) else "leon2"

    graph, constraints = build_design(design, scale=args.scale)
    service = TimingService(ServerOptions(
        port=0, deadline=300.0, max_inflight=clients,
        queue_depth=2 * clients))
    service.add_design(graph, constraints)

    edges = []
    for source, adjacency in enumerate(graph.fanout):
        for sink, _early, _late in adjacency:
            edges.append((graph.pin_name(source),
                          graph.pin_name(sink)))
    edges.sort()

    def edit_for(client: int, round_index: int) -> dict:
        driver, sink = edges[(7 * client + round_index) % len(edges)]
        bump = 0.05 * (client + 1) + 0.01 * round_index
        return {"driver": driver, "sink": sink,
                "early": round(0.1 + bump, 3),
                "late": round(0.3 + 2 * bump, 3)}

    update_latencies: list[float] = []
    rank_latencies: list[float] = []
    corrupted = 0
    errors: dict[str, int] = {}
    lock = threading.Lock()
    start_barrier = threading.Barrier(clients + 1)
    end_barrier = threading.Barrier(clients + 1)

    def client_loop(index: int, server: BackgroundServer) -> None:
        nonlocal corrupted
        status, payload = server.request("POST", "/sessions",
                                         {"design": design})
        sid = payload["session"]["sid"]
        solo = CpprEngine(TimingAnalyzer(graph, constraints),
                          CpprOptions()).session()
        from repro import DelayUpdate
        for round_index in range(rounds):
            start_barrier.wait(timeout=600)
            edit = edit_for(index, round_index)
            t0 = _time.perf_counter()
            status, payload = server.request(
                "POST", f"/sessions/{sid}/update", {"delays": [edit]})
            t1 = _time.perf_counter()
            ranked_status, ranked = server.request(
                "POST", f"/sessions/{sid}/rank_paths", {"k": k})
            t2 = _time.perf_counter()
            with lock:
                update_latencies.append(t1 - t0)
                rank_latencies.append(t2 - t1)
            solo.update(delays=[DelayUpdate(
                edit["driver"], edit["sink"], edit["early"],
                edit["late"])])
            if status != 200 or ranked_status != 200:
                code = (payload if status != 200
                        else ranked)["error"]["code"]
                with lock:
                    errors[code] = errors.get(code, 0) + 1
            else:
                want = paths_to_dicts(solo.analyzer,
                                      solo.top_paths(k, "setup"))
                got = ranked["paths"]
                for entry in got + want:
                    entry.pop("rank")
                if got != want:
                    with lock:
                        corrupted += 1
            end_barrier.wait(timeout=600)
        # Recovery-by-replay must have restored the exact version.
        status, info = server.request("GET", f"/sessions/{sid}")
        assert info["session"]["basis"] == [0, rounds], info

    with BackgroundServer(service) as server:
        threads = [threading.Thread(target=client_loop,
                                    args=(index, server))
                   for index in range(clients)]
        for thread in threads:
            thread.start()
        for _ in range(rounds):
            # Exactly one injected session crash somewhere this round.
            with faults.inject("server.session_crash:times=1"):
                start_barrier.wait(timeout=600)
                end_barrier.wait(timeout=600)
        for thread in threads:
            thread.join(timeout=600)
        _, health = server.request("GET", "/healthz")

    total = clients * rounds
    quantiles = statistics.quantiles(rank_latencies, n=100,
                                     method="inclusive")
    payload = {
        "schema": "repro.bench/server@1",
        "scale": args.scale,
        "design": design,
        "clients": clients,
        "rounds": rounds,
        "k": k,
        "requests": 2 * total,
        "crashes_injected": rounds,
        "crashes_observed": health["crashes"],
        "recovered": health["recovered"],
        "recovered_fraction": (health["recovered"] / health["crashes"]
                               if health["crashes"] else 1.0),
        "corrupted_pct": 100.0 * corrupted / total,
        "shed": health["shed"],
        "error_counts": errors,
        "update_p50_seconds": statistics.median(update_latencies),
        "rank_p50_seconds": statistics.median(rank_latencies),
        "rank_p99_seconds": quantiles[98],
    }
    write_bench_profile(RESULTS_DIR / "BENCH_server.json", payload)
    print(f"[server] wrote {RESULTS_DIR / 'BENCH_server.json'}",
          file=sys.stderr)
    print(json.dumps(payload, indent=2))
    assert payload["corrupted_pct"] == 0.0, \
        f"{corrupted} corrupted responses"
    assert payload["recovered_fraction"] == 1.0, payload


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("what", nargs="+",
                        choices=["table3", "table4", "fig5", "fig6",
                                 "ablation", "backend",
                                 "incremental", "faults", "parallel",
                                 "corners", "profile", "obs", "server",
                                 "ingest", "all"])
    parser.add_argument("--scale", type=float, default=1.0,
                        help="design scale factor (default 1.0)")
    parser.add_argument("--quick", action="store_true",
                        help="small matrix: 3 designs, k in {1, 50}")
    parser.add_argument("--no-memory", action="store_true",
                        help="skip the tracemalloc passes (faster)")
    parser.add_argument("--designs", metavar="A,B,...",
                        help="comma list of suite designs to run "
                             "(default: the full suite, or the quick "
                             "trio with --quick)")
    args = parser.parse_args(argv)

    if args.designs is not None:
        designs = [d.strip() for d in args.designs.split(",") if d.strip()]
        unknown = sorted(set(designs) - set(design_names()))
        if unknown:
            parser.error(f"unknown designs {unknown}; choose from "
                         f"{design_names()}")
        args.designs = designs
    else:
        args.designs = (["vga_lcdv2", "combo4v2", "leon2"] if args.quick
                        else design_names())
    args.k_values = [1, 50] if args.quick else [1, 50, 500]
    args.k_sweep = [1, 10, 50, 200, 500] if not args.quick else [1, 50]
    args.workers_sweep = [1, 2, 4, 8]

    steps = {"table3": run_table3, "table4": run_table4, "fig5": run_fig5,
             "fig6": run_fig6, "ablation": run_ablation,
             "backend": run_backend,
             "incremental": run_incremental,
             "faults": run_faults, "parallel": run_parallel,
             "corners": run_corners,
             "profile": run_profile, "obs": run_obs,
             "server": run_server, "ingest": run_ingest}
    selected = (list(steps) if "all" in args.what
                else list(dict.fromkeys(args.what)))
    for name in selected:
        steps[name](args)


if __name__ == "__main__":
    main()
