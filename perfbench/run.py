"""Run one perfbench workload at one seed and print its metrics.

    python3 perfbench/run.py --workload mcmm --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload mcmm --seed 1 --seconds 20 --trace 1

Run from the repository root; the program is imported from ``src/``.
Each run generates its inputs from ``--seed`` (cached under
``.perfbench/``), times the set-up alone in fresh interpreters, runs
one measured interpreter that does the set-up and a fixed number of
ops, checks every output in another process, and prints each metric
by name with its unit.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (BENCH_DIR, CACHE, LAYERS,  # noqa: E402
                    REFERENCE_LOOP_S, ROOT, SETUPS, SRC, WORKLOADS,
                    inputs_dir, ops_for, read_json, subprocess_env,
                    tail_index)

#: Seconds a whole run may take; each child gets what is left of it,
#: so a stuck child fails the run instead of hanging it.
RUN_BUDGET_S = 170.0

END_TO_END = (("setup_s", "s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
              ("read_p50_ms", "ms"), ("peak_rss_mb", "MiB"),
              ("ok_pct", "%"))

#: Per-layer metrics of the traced run, with units.  Layers a workload
#: bypasses read 0 there.
PER_LAYER = (
    ("io.load_s", "s"), ("io.parse_netlist_s", "s"),
    ("io.parse_sdf_s", "s"), ("io.sdf_corners_s", "s"),
    ("sta.analyzer_s", "s"), ("core.build_s", "s"),
    ("corners.realize_s", "s"), ("core.propagate_ms", "ms"),
    ("cppr.families_ms", "ms"), ("cppr.select_ms", "ms"),
    ("cppr.engine_overhead_ms", "ms"), ("cppr.paths_reported", "count"),
    ("cppr.paths_selected", "count"), ("cppr.select_yield", "ratio"),
    ("pipeline.session_open_s", "s"), ("pipeline.update_ms", "ms"),
    ("pipeline.report_ms", "ms"), ("pipeline.dirty_pins", "count"),
    ("pipeline.families_kept", "count"),
    ("pipeline.families_dropped", "count"),
    ("pipeline.full_rebuilds", "count"), ("server.design_load_s", "s"),
    ("server.update_ms", "ms"), ("server.rank_ms", "ms"),
    ("server.overhead_ms", "ms"), ("server.errors", "count"),
    *((f"{layer}.{kind}", unit) for layer in LAYERS
      for kind, unit in (("self_ms", "ms"), ("calls", "count"))),
    ("trace.unattributed_ms", "ms"), ("trace.op_ms", "ms"),
    ("trace.untraced_op_ms", "ms"), ("trace.overhead_ms", "ms"),
)


class Runner:
    """Child processes of one run, each bounded by the run's budget."""

    def __init__(self, workload: str, seed: int) -> None:
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = subprocess_env()
        self.scratch = CACHE / "runs" / f"{workload}-{seed}"
        self.scratch.mkdir(parents=True, exist_ok=True)

    def python(self, script: str, *args) -> None:
        """Run one child to completion within the run's budget.

        The child leads its own process group, so a child that runs
        out of time is killed together with anything it started (the
        ``serve`` workload's server).
        """
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError("run budget exhausted")
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / script),
             *map(str, args)],
            cwd=BENCH_DIR, env=self.env, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        try:
            _out, err = proc.communicate(timeout=remaining)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"{script} {' '.join(map(str, args))} "
                               f"failed:\n{err[-4000:]}")


def inputs_for(runner: Runner, workload: str, seed: int,
               ops: int) -> tuple[Path, Path | None]:
    inputs = inputs_dir(seed)
    if workload == "mcmm":
        runner.python("gen.py", "--seed", seed, "--what", "yosys")
        return inputs, None
    runner.python("gen.py", "--seed", seed, "--what", "eco",
                  "--rounds", ops)
    return inputs, inputs / f"eco-{ops}.json"


def tally(result: dict, check: dict) -> tuple[int, list[str]]:
    """``(failed ops, problems)`` of one run.

    An op fails when it raised (no digest), when its report differs
    from the reference, or, in a traced run, when the composed or
    served report differs from the engine's or the replay's.  Problems
    outside the op loop (a set-up's report, the exhaustive check) make
    the run incorrect without counting as failed ops.
    """
    failed_ops = set(check["failed"])
    failed_ops.update(result.get("mismatched", ()))
    failed_ops.update(i for i, d in enumerate(result["digests"])
                      if d is None)
    problems = list(check["notes"]) + result["errors"]
    if result.get("mismatched"):
        problems.append(f"traced ops {result['mismatched']} differ "
                        f"from the engine's report or the replay")
    if not check["first_ok"]:
        problems.append("the set-up's report differs from the reference")
    return len(failed_ops), problems


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = ops_for(workload, seconds)
    if trace and workload == "mcmm":
        # Each traced op also runs the engine's query for the
        # bit-for-bit comparison: half the ops keep the run's length.
        ops //= 2
    runner = Runner(workload, seed)
    inputs, rounds = inputs_for(runner, workload, seed, ops)
    work_args = ["--workload", workload, "--inputs", inputs, "--ops", ops]
    if rounds is not None:
        work_args += ["--rounds", rounds]
    setups = []
    if not trace:
        for index in range(SETUPS - 1):
            path = runner.scratch / f"setup-{index}.json"
            runner.python("work.py", *work_args, "--mode", "setup",
                          "--out", path)
            setups.append(read_json(path))
    path = runner.scratch / "result.json"
    runner.python("work.py", *work_args, "--mode",
                  "trace" if trace else "run", "--out", path)
    check_path = runner.scratch / "check.json"
    runner.python("check.py", "--workload", workload, "--seed", seed,
                  "--inputs", inputs, *(["--rounds", rounds] if rounds
                                        else []),
                  "--result", path, "--out", check_path)
    result = read_json(path)
    failed, problems = tally(result, read_json(check_path))
    report = {"ops": ops, "failed": failed, "problems": problems,
              "correct": failed == 0 and not problems}
    if trace:
        report["metrics"] = {name: (result["metrics"][name], unit)
                             for name, unit in PER_LAYER}
        report["server_errors"] = result["server_errors"]
        return report

    if not result["op_s"]:
        raise RuntimeError("every op failed: " + "; ".join(problems[:3]))
    report.update(end_to_end(setups + [result], result, ops, failed))
    return report


def end_to_end(setups: list[dict], result: dict, ops: int,
               failed: int) -> dict:
    """The end-to-end metrics of a run, and the wall-clock times.

    Each time is scaled by the calibration loops run beside it: the
    loops before and after each op, and those around each set-up.
    ``setups`` are the results of every process that set up.
    """
    index, percentile = tail_index(len(result["op_s"]))
    scales = [REFERENCE_LOOP_S / s for s in result["cal_s"]]
    wall = timed_metrics(
        [s["setup_s"] for s in setups], result["op_s"], result["read_s"],
        index)
    values = timed_metrics(
        [s["setup_s"] * REFERENCE_LOOP_S / s["setup_cal_s"]
         for s in setups],
        [op * f for op, f in zip(result["op_s"], scales)],
        [[r * f for r in reads]
         for reads, f in zip(result["read_s"], scales)], index)
    values["peak_rss_mb"] = result["peak_rss_mb"]
    values["ok_pct"] = 100.0 * (ops - failed) / ops
    return {"metrics": {name: (values[name], unit)
                        for name, unit in END_TO_END},
            "wall": wall, "tail_percentile": percentile,
            "loop_ms": 1e3 * statistics.median(result["cal_s"])}


def timed_metrics(setup_s: list, op_s: list, read_s: list,
                  tail: int) -> dict:
    """The timed end-to-end metrics from set-up, op and per-op read
    seconds; ``tail`` indexes the sorted op latencies."""
    return {"setup_s": statistics.median(setup_s),
            "op_p50_ms": 1e3 * statistics.median(op_s),
            "op_tail_ms": 1e3 * sorted(op_s)[tail],
            "read_p50_ms": 1e3 * statistics.median(
                [r for reads in read_s for r in reads])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # A terminated run stops its children too (Runner.python kills the
    # child's process group on the way out).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program is missing: no {SRC / 'repro'} "
              f"under {ROOT}", file=sys.stderr)
        return 2
    try:
        report = run(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  ops "
          f"{report['ops']}  trace {args.trace}")
    if not args.trace:
        print(f"  op_tail_ms is p{report['tail_percentile']:.1f} of "
              f"{report['ops']} ops; setup_s is the median of "
              f"{SETUPS} set-ups")
        print(f"  calibration loop {report['loop_ms']:.3f} ms (reference "
              f"{1e3 * REFERENCE_LOOP_S} ms); wall clock: " + ", ".join(
                  f"{name} {value}"
                  for name, value in report["wall"].items()))
        print(f"  failed_pct {100.0 * report['failed'] / report['ops']}"
              f" %")
    else:
        print(f"  server errors by code: {report['server_errors']}")
    for name, (value, unit) in report["metrics"].items():
        print(f"  {name} {value} {unit}")
    for problem in report["problems"]:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["ops"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
