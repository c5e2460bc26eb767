"""Tests of the benchmark itself (not part of the tier-1 suite).

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import work  # noqa: E402
from common import ROOT, digest, ops_for, tail_index  # noqa: E402


def test_benchmark_json_names_what_the_code_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)
    for workload in spec["workloads"]:
        n = ops_for(workload["name"], spec["run_seconds"])
        _index, percentile = tail_index(n)
        assert f"{n} ops, op_tail_ms is p{percentile:.0f}" \
            in workload["why"]


@pytest.mark.parametrize("n", [40, 200, 334])
def test_tail_has_ten_ops_beyond_it(n):
    values = list(range(n))
    index, percentile = tail_index(n)
    assert sum(v > values[index] for v in values) == 10
    assert percentile == pytest.approx(100.0 * (n - 10) / n)


@pytest.fixture(scope="module")
def mcmm_run(tmp_path_factory):
    """A measured mcmm run of three ops."""
    inputs = tmp_path_factory.mktemp("inputs")
    gen.make_yosys(3, inputs / "mcmm.json", inputs / "mcmm.sdf")
    bench = work.Mcmm(inputs, work.NO_TRACE)
    return inputs, bench, work.measure(bench, 3)


def run_check(inputs, result, tmp_path) -> dict:
    """``check.py`` on a result file, as a run calls it."""
    path = tmp_path / "result.json"
    path.write_text(json.dumps(result))
    out = tmp_path / "check.json"
    check.main(["--workload", "mcmm", "--seed", "3", "--inputs",
                str(inputs), "--result", str(path), "--out", str(out)])
    return json.loads(out.read_text())


def test_clean_run_passes_the_check(mcmm_run, tmp_path):
    inputs, _bench, result = mcmm_run
    verdict = run_check(inputs, result, tmp_path)
    assert verdict == {"failed": [], "first_ok": True, "notes": []}
    assert run.tally(result, verdict) == (0, [])


def test_corrupted_report_counts_as_failed(mcmm_run, tmp_path):
    inputs, bench, result = mcmm_run
    rows = bench.outputs(bench.first)
    corner = next(iter(rows["hold"]))
    rows["hold"][corner][0][0] += 1e-12   # one slack off in the last bits
    corrupted = dict(result, digests=list(result["digests"]))
    corrupted["digests"][1] = digest(rows)
    verdict = run_check(inputs, corrupted, tmp_path)
    assert verdict["failed"] == [1] and verdict["first_ok"]
    assert run.tally(corrupted, verdict) == (1, [])


def test_raised_op_and_traced_mismatch_count_as_failed():
    result = {"digests": ["a", None, "c", "d"], "errors": ["op 1: boom"],
              "mismatched": [2, 3]}
    count, problems = run.tally(result, {"failed": [3], "first_ok": True,
                                         "notes": []})
    assert count == 3
    assert len(problems) == 2


def test_times_are_scaled_by_the_loops_beside_them():
    # The second op and its reads ran while the loop took twice as long
    # as on the reference machine: the host was at half speed.
    ref = run.REFERENCE_LOOP_S
    result = {"op_s": [0.010, 0.020], "read_s": [[0.004, 0.006],
                                                 [0.008, 0.012]],
              "cal_s": [ref, 2 * ref], "setup_s": 4.0,
              "setup_cal_s": 2 * ref, "peak_rss_mb": 50.0}
    setups = [{"setup_s": 1.0, "setup_cal_s": ref},
              {"setup_s": 3.0, "setup_cal_s": ref}, result]
    out = run.end_to_end(setups, result, ops=3, failed=1)
    metrics = {name: value for name, (value, _u) in out["metrics"].items()}
    assert metrics == pytest.approx({
        "setup_s": 2.0, "op_p50_ms": 10.0, "op_tail_ms": 10.0,
        "read_p50_ms": 5.0, "peak_rss_mb": 50.0, "ok_pct": 200 / 3})
    assert out["wall"] == pytest.approx({
        "setup_s": 3.0, "op_p50_ms": 15.0, "op_tail_ms": 10.0,
        "read_p50_ms": 7.0})


def test_traced_composition_matches_the_engine(mcmm_run):
    inputs, _bench, _result = mcmm_run
    tr = work.Tracer()
    bench = work.Mcmm(inputs, tr)
    counts = {"cppr.paths_reported": 0, "cppr.paths_selected": 0}
    composed = bench.composed(tr, counts)
    _seconds, _reads, pair = bench.op(0)
    assert bench.outputs(composed) == bench.outputs(pair)
    assert bench.corners_match
    names = {span[0] for span in tr.spans}
    assert {"io.load", "io.sdf_corners", "sta.analyzer", "core.build",
            "corners.realize", "core.propagate", "cppr.families",
            "cppr.select"} <= names
    assert all(start <= end for _n, start, end, _p, _o in tr.spans)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mcmm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
