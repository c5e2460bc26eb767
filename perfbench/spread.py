"""Run-to-run spread of the end-to-end metrics, beside their bounds.

    python3 perfbench/spread.py --workload mcmm --seeds 1-10

Runs ``run.py`` once per seed, one run at a time, at BENCHMARK.json's
``run_seconds``, and prints for each end-to-end metric the median of
the runs and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of that median,
beside the metric's bound from BENCHMARK.json.
A spread above a third of its bound is flagged.  The raw results go to
``.perfbench/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import BENCH_DIR, CACHE, ROOT, WORKLOADS, write_json  # noqa: E402


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        out.extend(range(int(low), int(high or low) + 1))
    return out


def spread(values: list[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for seed in args.seeds:
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed} ({time.monotonic() - started:.0f} s): "
              f"correct {result['correct']} " + " ".join(
            f"{name}={m['value']:.4g}"
            for name, m in result["metrics"].items()), flush=True)
    write_json(CACHE / f"spread-{args.workload}.json", runs)
    print(f"{'metric':<14}{'median':>12}{'spread':>9}{'bound':>8}")
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        share = spread(values) if len(values) > 1 else 0.0
        flag = "  > bound/3" if share > metric["bound"] / 3 else ""
        print(f"{metric['name']:<14}{statistics.median(values):>12.4f}"
              f"{share:>9.3f}{metric['bound']:>8}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
