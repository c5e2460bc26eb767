"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``stats`` — Table III-style statistics of a design file or suite
  design.
* ``report`` — top-k post-CPPR critical paths (or the pre-CPPR endpoint
  summary with ``--pre``); ``--eco updates.json`` reports the design
  *after* applying the ECO edits, via an incremental session.
* ``eco`` — before/after what-if analysis: baseline query, apply the
  update file through a :class:`~repro.pipeline.session.CpprSession`,
  re-query incrementally, and print both reports plus pipeline stats.
* ``generate`` — synthesize a suite or random design to a file.
* ``convert`` — convert between the ``.cppr`` text and ``.json``
  formats.
* ``compare`` — run several timer architectures on one design and print
  their runtimes and agreement.
* ``bench-check`` — the perf-regression sentinel: compare the
  ``BENCH_*.json`` family against a rolling baseline and exit nonzero
  on regression (see :mod:`repro.obs.sentinel`).

``report`` and ``eco`` accept ``--trace-out FILE`` (a Chrome
trace-event JSON, loadable in Perfetto) and ``--span-log FILE`` (JSONL,
one record per span); see ``docs/OBSERVABILITY.md``.  Both also take a
repeatable ``--corner NAME=FILE`` flag (an ECO-update JSON naming a
delay corner; ``NAME=-`` is the base design) plus ``--merged-worst``
for one cross-corner worst-paths report; see ``docs/MCMM.md``.

Designs are read from ``.cppr``/``.json`` files, or generated on the
fly with ``--suite NAME [--suite-scale S]``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.baselines import (BlockBasedTimer, BranchBoundTimer,
                             ExhaustiveTimer, PairEnumTimer)
from repro.cppr.engine import CpprEngine, CpprOptions
from repro.cppr.report import format_path_report
from repro.exceptions import ReproError
from repro.io.frontend import ImportedDesign, formats
from repro.io.frontend import load_design as load_frontend_design
from repro.io.json_format import save_design_json
from repro.io.tau_format import save_design
from repro.sta.report import format_endpoint_report
from repro.sta.timing import TimingAnalyzer
from repro.utils.measure import measure_runtime
from repro.workloads.random_circuit import RandomDesignSpec, random_design
from repro.workloads.stats import DesignStats, design_statistics
from repro.workloads.suite import (build_design, design_names,
                                   suggest_clock_period)
from repro.sta.constraints import TimingConstraints

__all__ = ["main"]

_TIMERS = {
    "ours": CpprEngine,
    "pair": PairEnumTimer,
    "block": BlockBasedTimer,
    "bnb": BranchBoundTimer,
    "exhaustive": ExhaustiveTimer,
}


def _make_timer(name: str, analyzer, backend: str,
                resilience: dict | None = None):
    """One timer instance, passing the backend to those that take it."""
    if name == "ours":
        return CpprEngine(analyzer, CpprOptions(backend=backend,
                                                **(resilience or {})))
    if name == "pair":
        return PairEnumTimer(analyzer, backend=backend)
    if name == "block":
        return BlockBasedTimer(analyzer, backend=backend)
    return _TIMERS[name](analyzer)


def _save(graph, constraints, path: str) -> None:
    if path.endswith(".json"):
        save_design_json(graph, constraints, path)
    else:
        save_design(graph, constraints, path)


def _design_from_args(args) -> ImportedDesign:
    """The design named by the CLI args, through the frontend registry."""
    if args.suite is not None:
        graph, constraints = build_design(args.suite,
                                          scale=args.suite_scale)
        return ImportedDesign(graph=graph, constraints=constraints,
                              format="suite", path=args.suite,
                              meta={"scale": args.suite_scale})
    if args.design is None:
        raise ReproError("no design given: pass a file or --suite NAME")
    return load_frontend_design(
        args.design,
        format=getattr(args, "format", None) or "auto",
        sdc=getattr(args, "sdc", None),
        sdf=getattr(args, "sdf", None),
        clock_period=getattr(args, "clock_period", None),
        sdf_corners=getattr(args, "sdf_corners", False))


def _add_resilience_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--task-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-task wall-clock budget before the "
                             "scheduler abandons and retries it "
                             "(default: none)")
    parser.add_argument("--max-retries", type=int, default=2,
                        metavar="N",
                        help="retries per failed task before falling "
                             "back to a safer executor (default 2)")
    parser.add_argument("--retry-backoff", type=float, default=0.05,
                        metavar="SECONDS",
                        help="base delay between retry waves, doubled "
                             "each attempt (default 0.05)")
    parser.add_argument("--strict", action="store_true",
                        help="fail fast: raise instead of degrading to "
                             "a safer executor/backend")


def _resilience_from_args(args) -> dict:
    return {"task_timeout": args.task_timeout,
            "max_retries": args.max_retries,
            "retry_backoff": args.retry_backoff,
            "strict": args.strict}


def _add_corner_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--corner", action="append", default=None,
                        metavar="NAME=FILE", dest="corners",
                        help="analyze a named delay corner (ECO-update "
                             "JSON delta from the base design); repeat "
                             "for multiple corners.  NAME=- names the "
                             "base design itself (empty delta)")
    parser.add_argument("--merged-worst", action="store_true",
                        help="with --corner: one merged report of the "
                             "k worst paths across all corners instead "
                             "of per-corner reports")


def _corners_from_args(args, imported: ImportedDesign | None = None):
    """The validated :class:`~repro.corners.CornerSet`, or ``None``.

    Merges the repeatable ``--corner NAME=FILE`` specs with any corners
    the frontend extracted from an SDF's min/typ/max triples
    (``--sdf-corners``).  Spec-shape problems fail here; unknown pins
    or clock nodes inside a corner file fail eagerly at engine
    construction (both before any query runs), and file-format problems
    carry the loader's usual ``path: context`` diagnostics.
    """
    specs = getattr(args, "corners", None)
    sdf_set = imported.corners if imported is not None else None
    if not specs and sdf_set is None:
        if getattr(args, "merged_worst", False):
            raise ReproError(
                "--merged-worst needs at least one --corner NAME=FILE "
                "or --sdf-corners")
        return None
    from repro.corners import Corner, CornerSet

    corners = list(sdf_set) if sdf_set is not None else []
    for spec in specs or ():
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            raise ReproError(
                f"--corner {spec!r}: expected NAME=FILE (a corner name "
                f"and an ECO-update JSON path)")
        if path == "-":
            corners.append(Corner(name))
        else:
            corners.append(Corner.load(name, path))
    return CornerSet(corners)


def _add_design_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("design", nargs="?",
                        help="design file (.cppr, .json, .v, or Yosys "
                             "write_json)")
    parser.add_argument("--format", dest="format", default="auto",
                        choices=["auto"] + [s.name for s in formats()],
                        help="input format (default: auto-detect by "
                             "extension and content)")
    parser.add_argument("--sdc",
                        help="SDC constraints (required for .v designs; "
                             "optional for Yosys JSON)")
    parser.add_argument("--sdf", metavar="FILE",
                        help="SDF delay annotation for netlist formats "
                             "(IOPATH/INTERCONNECT min:typ:max)")
    parser.add_argument("--sdf-corners", action="store_true",
                        help="with --sdf: realize the min/typ/max "
                             "triples as an MCMM corner set")
    parser.add_argument("--clock-period", type=float, default=None,
                        metavar="T",
                        help="clock period for a synthesized Yosys "
                             "clock (default: auto-suggested)")
    parser.add_argument("--suite", choices=design_names(),
                        help="use a generated suite design instead")
    parser.add_argument("--suite-scale", type=float, default=1.0,
                        help="scale for --suite (default 1.0)")


def _cmd_stats(args) -> int:
    imported = _design_from_args(args)
    graph, constraints = imported
    stats = design_statistics(graph)
    print(DesignStats.header())
    print(stats.row())
    print(f"clock period: {constraints.clock_period:.4f}")
    return 0


def _write_trace_outputs(args, profile) -> None:
    """Honor ``--trace-out`` / ``--span-log`` for a collected profile."""
    from repro.obs import write_chrome_trace, write_span_log

    if getattr(args, "trace_out", None) is not None:
        trace_id = write_chrome_trace(args.trace_out, profile)
        print(f"wrote Chrome trace {trace_id} -> {args.trace_out}",
              file=sys.stderr)
    if getattr(args, "span_log", None) is not None:
        count = write_span_log(args.span_log, profile)
        print(f"wrote {count} span records -> {args.span_log}",
              file=sys.stderr)


def _cmd_report(args) -> int:
    from repro.cppr.queries import endpoint_paths, pair_paths
    from repro.obs import collecting, format_profile, profile_to_json

    profiling = (args.profile or args.profile_json
                 or args.trace_out is not None
                 or args.span_log is not None)
    imported = _design_from_args(args)
    graph, constraints = imported
    corner_set = _corners_from_args(args, imported)
    if corner_set is not None:
        if args.pre or args.pair is not None or args.endpoint is not None:
            raise ReproError(
                "--corner applies to the full engine report; drop "
                "--pre / --pair / --endpoint")
        if args.save_json is not None:
            raise ReproError("--save-json is not supported with --corner")
    eco = None
    if getattr(args, "eco", None) is not None:
        from repro.io.eco import load_eco_updates
        eco = load_eco_updates(args.eco)
        if args.pre or args.pair is not None or args.endpoint is not None:
            # Filtered queries have no session entry point; apply the
            # edits functionally and analyze the derived design.
            from repro.sta.incremental import (apply_clock_updates,
                                               apply_delay_updates)
            if eco.delays:
                graph = apply_delay_updates(graph, list(eco.delays))
            if eco.clock:
                graph = apply_clock_updates(graph, eco.clock)
    analyzer = TimingAnalyzer(graph, constraints)
    eco_suffix = f" (ECO: {eco.describe()})" if eco else ""

    meta_engine = None  # set when the full engine runs the query

    def run():
        nonlocal analyzer, meta_engine
        if args.pre:
            return None, format_endpoint_report(analyzer, args.mode,
                                                limit=args.k)
        if args.pair is not None:
            launch, _, capture = args.pair.partition(":")
            if not capture:
                raise ReproError(
                    "--pair expects LAUNCH:CAPTURE flip-flop names")
            paths = pair_paths(analyzer, launch, capture, args.k,
                               args.mode, backend=args.backend,
                               strict=args.strict)
            title = (f"Top-{args.k} post-CPPR {args.mode} paths "
                     f"{launch} -> {capture}{eco_suffix}")
        elif args.endpoint is not None:
            paths = endpoint_paths(analyzer, args.endpoint, args.k,
                                   args.mode, backend=args.backend,
                                   strict=args.strict)
            title = (f"Top-{args.k} post-CPPR {args.mode} paths into "
                     f"{args.endpoint}{eco_suffix}")
        else:
            engine = CpprEngine(analyzer, CpprOptions(
                backend=args.backend, corners=corner_set,
                **_resilience_from_args(args)))
            meta_engine = engine
            if corner_set is not None:
                # Multi-corner: the rendered report(s) are the result.
                source = engine
                if eco:
                    source = engine.session()
                    source.update(delays=list(eco.delays),
                                  clock=eco.clock)
                if args.merged_worst:
                    text = source.merged_worst_report(
                        args.k, args.mode,
                        title=f"Top-{args.k} post-CPPR {args.mode} "
                              f"paths (merged worst across corners)"
                              f"{eco_suffix}")
                else:
                    text = "\n".join(
                        source.report(
                            args.k, args.mode,
                            title=f"Top-{args.k} post-CPPR {args.mode} "
                                  f"paths [corner {name}]{eco_suffix}",
                            corner=name)
                        for name in corner_set.names)
                return None, text
            if eco:
                session = engine.session()
                session.update(delays=list(eco.delays), clock=eco.clock)
                paths = session.top_paths(args.k, args.mode)
                analyzer = session.analyzer
            else:
                paths = engine.top_paths(args.k, args.mode)
            title = (f"Top-{args.k} post-CPPR {args.mode} paths"
                     f"{eco_suffix}")
        return paths, title

    if profiling:
        with collecting() as col:
            paths, title = run()
        profile = col.profile()
        if meta_engine is not None:
            profile = profile.with_meta(meta_engine.profile_meta())
        _write_trace_outputs(args, profile)
    else:
        paths, title = run()
        profile = None

    if args.profile_json:
        # Machine-readable mode: the profile JSON is the whole output.
        print(profile_to_json(profile))
        return 0
    if paths is None:  # --pre: title holds the rendered report
        print(title)
    elif args.save_json is not None:
        from repro.io.reports import save_paths_json
        save_paths_json(analyzer, paths, args.save_json)
        print(f"wrote {len(paths)} paths -> {args.save_json}")
    else:
        print(format_path_report(analyzer, paths, title=title))
    if profile is not None and args.profile:
        print()
        print(format_profile(profile, title=f"Profile ({args.mode})"))
    return 0


def _cmd_eco(args) -> int:
    from repro.io.eco import load_eco_updates
    from repro.obs import collecting, format_profile

    profiling = (args.profile or args.trace_out is not None
                 or args.span_log is not None)
    imported = _design_from_args(args)
    graph, constraints = imported
    corner_set = _corners_from_args(args, imported)
    updates = load_eco_updates(args.updates)
    if not updates:
        raise ReproError(f"{args.updates}: no delay or clock edits")
    analyzer = TimingAnalyzer(graph, constraints)
    engine = CpprEngine(analyzer, CpprOptions(
        backend=args.backend, corners=corner_set,
        **_resilience_from_args(args)))
    session = engine.session()

    def query():
        if corner_set is None:
            return session.top_paths(args.k, args.mode)
        if args.merged_worst:
            # (corner, path) pairs; slack order matches top_paths.
            return session.merged_worst(args.k, args.mode)
        return session.top_paths_by_corner(args.k, args.mode)

    def go():
        baseline = measure_runtime(query)
        summary = session.update(delays=list(updates.delays),
                                 clock=updates.clock)
        requery = measure_runtime(query)
        return baseline, summary, requery

    if profiling:
        with collecting() as col:
            baseline, summary, requery = go()
        profile = col.profile()
        _write_trace_outputs(args, profile)
    else:
        baseline, summary, requery = go()
        profile = None

    before, after = baseline.value, requery.value

    def worst_slack(result) -> float:
        if not result:
            return float("inf")
        if corner_set is None:
            return result[0].slack
        if args.merged_worst:
            return result[0][1].slack
        return min((paths[0].slack for paths in result.values()
                    if paths), default=float("inf"))

    if corner_set is None:
        print(format_path_report(
            session.analyzer, after,
            title=f"Top-{args.k} post-CPPR {args.mode} paths after ECO "
                  f"({updates.describe()})"))
    elif args.merged_worst:
        print(session.merged_worst_report(
            args.k, args.mode,
            title=f"Top-{args.k} post-CPPR {args.mode} paths after ECO "
                  f"({updates.describe()}; merged worst across "
                  f"corners)"))
    else:
        print("\n".join(session.report(
            args.k, args.mode,
            title=f"Top-{args.k} post-CPPR {args.mode} paths after ECO "
                  f"({updates.describe()}) [corner {name}]",
            corner=name) for name in corner_set.names))
    print()
    print(f"worst slack: {worst_slack(before):.4f} -> "
          f"{worst_slack(after):.4f}")
    print(f"baseline query: {baseline.seconds:.3f}s   "
          f"incremental re-query: {requery.seconds:.3f}s")
    print(f"dirty: {summary['dirty_pins']} pins "
          f"({summary['dirty_fraction']:.2%})"
          + ("  [full rebuild]" if summary["full_rebuild"] else ""))
    print(f"families kept: {summary['families_kept']}   "
          f"dropped: {summary['families_dropped']}")
    stats = session.stats()
    if corner_set is None:
        print(f"family cache: {stats['families']}   "
              f"select cache: {stats['select']}")
    else:
        for name, row in stats["corners"].items():
            print(f"[corner {name}] family cache: {row['families']}   "
                  f"select cache: {row['select']}")
    if profile is not None and args.profile:
        print()
        print(format_profile(profile, title=f"Profile ({args.mode})"))
    return 0


def _cmd_generate(args) -> int:
    if args.suite is not None:
        graph, constraints = build_design(args.suite,
                                          scale=args.suite_scale)
    else:
        spec = RandomDesignSpec(
            name=args.name, seed=args.seed, num_ffs=args.ffs,
            num_gates=args.gates, clock_depth=args.depth,
            layers=args.layers, channels=args.channels)
        graph = random_design(spec)
        constraints = TimingConstraints(suggest_clock_period(graph))
    _save(graph, constraints, args.output)
    print(f"wrote {graph.describe()} -> {args.output}")
    return 0


def _cmd_convert(args) -> int:
    graph, constraints = load_frontend_design(
        args.input, format=args.format or "auto",
        sdc=getattr(args, "sdc", None), sdf=getattr(args, "sdf", None),
        clock_period=getattr(args, "clock_period", None))
    _save(graph, constraints, args.output)
    print(f"converted {args.input} -> {args.output}")
    return 0


def _cmd_compare(args) -> int:
    from repro.obs import collecting, format_profile, profile_to_json

    profiling = args.profile or args.profile_json
    graph, constraints = _design_from_args(args)
    analyzer = TimingAnalyzer(graph, constraints)
    reference: list[float] | None = None
    profiles: list[tuple[str, float, object]] = []
    table_lines = [f"{'timer':<12} {'runtime':>10}   agreement"]
    for name in args.timers.split(","):
        name = name.strip()
        if name not in _TIMERS:
            raise ReproError(
                f"unknown timer {name!r}; choose from "
                f"{sorted(_TIMERS)}")
        timer = _make_timer(name, analyzer, args.backend,
                            resilience=_resilience_from_args(args))
        if profiling:
            with collecting() as col:
                result = measure_runtime(
                    lambda t=timer: t.top_slacks(args.k, args.mode))
            profiles.append((name, result.seconds, col.profile()))
        else:
            result = measure_runtime(
                lambda t=timer: t.top_slacks(args.k, args.mode))
        slacks = result.value
        if reference is None:
            reference = slacks
            agreement = "(reference)"
        else:
            same = len(slacks) == len(reference) and all(
                abs(a - b) < 1e-9 for a, b in zip(slacks, reference))
            agreement = "exact match" if same else "MISMATCH"
        table_lines.append(f"{name:<12} {result.seconds:>9.3f}s   "
                           f"{agreement}")
    if args.profile_json:
        import json
        payload = {name: {"seconds": seconds,
                          "profile": profile.to_dict()}
                   for name, seconds, profile in profiles}
        print(json.dumps(payload, indent=2))
        return 0
    print("\n".join(table_lines))
    for name, _seconds, profile in profiles:
        print()
        print(format_profile(profile, title=f"Profile: {name}"))
    return 0


def _cmd_bench_check(args) -> int:
    from repro.obs.sentinel import run_check

    code, lines = run_check(
        args.results_dir, args.baseline,
        tolerance_pct=args.tolerance,
        window=args.window,
        update=args.update,
        skip_absolute=args.skip_absolute)
    print("\n".join(lines))
    return code


def _cmd_serve(args) -> int:
    from repro.server import ServerOptions, TimingService, run_server

    # Eager validation: every envelope flag is checked here, before any
    # design is loaded — a bad --port fails in milliseconds, not after
    # minutes of netlist parsing.
    options = ServerOptions(
        host=args.host, port=args.port,
        max_inflight=args.max_inflight, queue_depth=args.queue_depth,
        deadline=args.deadline, drain_grace=args.drain_grace,
        breaker_failures=args.breaker_failures,
        breaker_degraded=args.breaker_degraded,
        breaker_cooldown=args.breaker_cooldown,
        trace_out=args.trace_out, span_log=args.span_log)
    service = TimingService(options)
    if args.design is not None or args.suite is not None:
        imported = _design_from_args(args)
        corners = _corners_from_args(args, imported)
        graph, constraints = imported
        token = service.add_design(
            graph, constraints,
            CpprOptions(backend=args.backend,
                        executor=args.executor, workers=args.workers,
                        corners=corners,
                        **_resilience_from_args(args)),
            token=args.token)
        print(f"loaded design {token!r}: {graph.num_pins} pins, "
              f"{graph.num_ffs} FFs"
              + (f", {len(corners)} corners" if corners else ""))
    print(f"serving on http://{options.host}:{options.port or '<auto>'} "
          f"(max-inflight {options.max_inflight}, queue "
          f"{options.queue_depth}, deadline "
          f"{options.deadline if options.deadline is not None else 'none'}"
          f"s); SIGTERM/SIGINT drains")
    summary = run_server(service)
    print(f"drained: {summary}")
    return 0


def _add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-out", metavar="FILE",
                        help="write the run's Chrome trace-event JSON "
                             "(open in https://ui.perfetto.dev)")
    parser.add_argument("--span-log", metavar="FILE",
                        help="write the run's spans as JSONL, one "
                             "record per span")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Common Path Pessimism Removal toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    stats = sub.add_parser("stats", help="design statistics (Table III)")
    _add_design_arguments(stats)
    stats.set_defaults(func=_cmd_stats)

    report = sub.add_parser("report", help="critical-path report")
    _add_design_arguments(report)
    report.add_argument("-k", type=int, default=10,
                        help="number of paths (default 10)")
    report.add_argument("--mode", choices=["setup", "hold"],
                        default="setup")
    report.add_argument("--pre", action="store_true",
                        help="pre-CPPR endpoint summary instead")
    report.add_argument("--endpoint", metavar="FF",
                        help="only paths captured by this flip-flop")
    report.add_argument("--pair", metavar="LAUNCH:CAPTURE",
                        help="only paths for this flip-flop pair")
    report.add_argument("--eco", metavar="UPDATES.json",
                        help="apply the ECO update file (delay/clock "
                             "edits) before reporting, via an "
                             "incremental session")
    report.add_argument("--save-json", metavar="FILE",
                        help="write a machine-readable report instead")
    report.add_argument("--profile", action="store_true",
                        help="also print a span tree + counter table")
    report.add_argument("--profile-json", action="store_true",
                        help="print the profile as JSON (and nothing "
                             "else)")
    report.add_argument("--backend",
                        choices=["auto", "scalar", "array"],
                        default="auto",
                        help="compute substrate: scalar reference or "
                             "numpy arrays (default auto)")
    _add_corner_arguments(report)
    _add_trace_arguments(report)
    _add_resilience_arguments(report)
    report.set_defaults(func=_cmd_report)

    eco = sub.add_parser("eco", help="incremental before/after ECO "
                                     "what-if analysis")
    _add_design_arguments(eco)
    eco.add_argument("updates", help="ECO update file (JSON; see "
                                     "docs/INCREMENTAL.md)")
    eco.add_argument("-k", type=int, default=10,
                     help="number of paths (default 10)")
    eco.add_argument("--mode", choices=["setup", "hold"],
                     default="setup")
    eco.add_argument("--profile", action="store_true",
                     help="also print a span tree + counter table")
    eco.add_argument("--backend", choices=["auto", "scalar", "array"],
                     default="auto",
                     help="compute substrate (default auto)")
    _add_corner_arguments(eco)
    _add_trace_arguments(eco)
    _add_resilience_arguments(eco)
    eco.set_defaults(func=_cmd_eco)

    generate = sub.add_parser("generate", help="synthesize a design")
    generate.add_argument("output", help="output file (.cppr or .json)")
    generate.add_argument("--suite", choices=design_names())
    generate.add_argument("--suite-scale", type=float, default=1.0)
    generate.add_argument("--name", default="random")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--ffs", type=int, default=50)
    generate.add_argument("--gates", type=int, default=200)
    generate.add_argument("--depth", type=int, default=5)
    generate.add_argument("--layers", type=int, default=0)
    generate.add_argument("--channels", type=int, default=1)
    generate.set_defaults(func=_cmd_generate)

    convert = sub.add_parser("convert", help="convert between formats")
    convert.add_argument("input",
                         help="any registered input format (.cppr, "
                              ".json, .v, Yosys JSON)")
    convert.add_argument("output", help="output file (.cppr or .json)")
    convert.add_argument("--format", default="auto",
                         choices=["auto"] + [s.name for s in formats()],
                         help="input format (default auto-detect)")
    convert.add_argument("--sdc",
                         help="SDC constraints for netlist inputs")
    convert.add_argument("--sdf", metavar="FILE",
                         help="SDF delay annotation for netlist inputs")
    convert.add_argument("--clock-period", type=float, default=None,
                         metavar="T",
                         help="clock period for a synthesized Yosys "
                              "clock")
    convert.set_defaults(func=_cmd_convert)

    compare = sub.add_parser("compare", help="race timer architectures")
    _add_design_arguments(compare)
    compare.add_argument("-k", type=int, default=50)
    compare.add_argument("--mode", choices=["setup", "hold"],
                         default="setup")
    compare.add_argument("--timers", default="ours,block,bnb",
                         help="comma list: ours,pair,block,bnb,exhaustive")
    compare.add_argument("--profile", action="store_true",
                         help="also print per-timer profiles")
    compare.add_argument("--profile-json", action="store_true",
                         help="print per-timer profiles as JSON (and "
                              "nothing else)")
    compare.add_argument("--backend",
                         choices=["auto", "scalar", "array"],
                         default="auto",
                         help="compute substrate for timers that "
                              "support it (default auto)")
    _add_resilience_arguments(compare)
    compare.set_defaults(func=_cmd_compare)

    bench = sub.add_parser(
        "bench-check",
        help="perf-regression sentinel over BENCH_*.json results")
    bench.add_argument("--results-dir", default="benchmarks/results",
                       metavar="DIR",
                       help="directory holding BENCH_*.json files "
                            "(default benchmarks/results)")
    bench.add_argument("--baseline",
                       default="benchmarks/results/BENCH_baseline.json",
                       metavar="FILE",
                       help="rolling-baseline file; created on first "
                            "run (default benchmarks/results/"
                            "BENCH_baseline.json)")
    bench.add_argument("--tolerance", type=float, default=15.0,
                       metavar="PCT",
                       help="tolerance band around the rolling median, "
                            "percent (default 15)")
    bench.add_argument("--window", type=int, default=5, metavar="N",
                       help="rolling-window length for new baselines "
                            "(default 5)")
    bench.add_argument("--update", action="store_true",
                       help="on a passing check, fold the current "
                            "values into the rolling window")
    bench.add_argument("--skip-absolute", action="store_true",
                       help="ignore wall-clock (seconds) metrics — use "
                            "when the baseline was recorded on "
                            "different hardware")
    bench.set_defaults(func=_cmd_bench_check)

    serve = sub.add_parser(
        "serve",
        help="persistent timing server (HTTP/JSON; see docs/SERVER.md)")
    _add_design_arguments(serve)
    serve.add_argument("--token", metavar="NAME",
                       help="design token clients address the preloaded "
                            "design by (default: the design's name)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8787,
                       help="TCP port; 0 picks a free one (default 8787)")
    serve.add_argument("--max-inflight", type=int, default=8,
                       metavar="N",
                       help="requests executing concurrently before new "
                            "ones queue (default 8)")
    serve.add_argument("--queue-depth", type=int, default=16, metavar="N",
                       help="queued requests beyond which the server "
                            "sheds with 429 (default 16)")
    serve.add_argument("--deadline", type=float, default=30.0,
                       metavar="SECONDS",
                       help="default per-request deadline; requests "
                            "override with a \"deadline\" field or "
                            "X-Deadline header, tightest wins "
                            "(default 30)")
    serve.add_argument("--drain-grace", type=float, default=10.0,
                       metavar="SECONDS",
                       help="how long SIGTERM waits for in-flight "
                            "requests before flushing (default 10)")
    serve.add_argument("--breaker-failures", type=int, default=3,
                       metavar="N",
                       help="consecutive hard failures that open a "
                            "design's circuit (default 3)")
    serve.add_argument("--breaker-degraded", type=int, default=3,
                       metavar="N",
                       help="consecutive degraded results before "
                            "demoting a design down the ladder "
                            "(default 3)")
    serve.add_argument("--breaker-cooldown", type=float, default=30.0,
                       metavar="SECONDS",
                       help="open-circuit / demotion cooldown "
                            "(default 30)")
    serve.add_argument("--executor",
                       choices=["serial", "thread", "process"],
                       default="serial",
                       help="scheduler executor for the preloaded "
                            "design (default serial)")
    serve.add_argument("--workers", type=int, default=None, metavar="N",
                       help="worker count for thread/process executors")
    serve.add_argument("--backend", choices=["auto", "scalar", "array"],
                       default="auto",
                       help="compute substrate (default auto)")
    _add_corner_arguments(serve)
    _add_trace_arguments(serve)
    _add_resilience_arguments(serve)
    serve.set_defaults(func=_cmd_serve)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout went away (e.g. piped into `head`); not an error.
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
