"""Definitions shared by every perfbench process.

Nothing here imports ``repro``: the orchestrator (``run.py``) imports
this module before it knows whether the program is present.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Generated inputs (cached by seed) and per-run scratch files.  Listed
#: in the repository's .gitignore.
CACHE = ROOT / ".perfbench"

WORKLOADS = ("eco", "mcmm", "serve")
MODES = ("setup", "hold")
LAYERS = ("io", "sta", "core", "corners", "cppr", "pipeline", "server")

#: Top-k of every report the workloads ask for.
K_ECO = 50
K_MCMM = 10

#: Seconds one op takes on the reference machine (2-CPU x86 container,
#: 2.1 GHz).  ``ops_for`` turns ``--seconds`` into a fixed op count, so
#: every run at the same ``--seconds`` does the same number of ops.
NOMINAL_OP_S = {"eco": 0.03, "mcmm": 0.35, "serve": 0.04}
#: Floor on the op count: the tail percentile needs at least 10 ops
#: beyond it, and 40 ops put it at p75 or higher.
MIN_OPS = 40
#: Set-ups per run, each in a fresh interpreter; ``setup_s`` is their
#: median.  The last one is the measured process's own.
SETUPS = 3
#: Iterations of the calibration loop (``work.calibrate``), and the
#: seconds it takes on the reference machine.  The host changes speed
#: in spells; each end-to-end time is multiplied by
#: ``REFERENCE_LOOP_S / loop seconds`` measured beside it, which
#: expresses it at the reference machine's speed.
CALIBRATION_LOOPS = 20_000
REFERENCE_LOOP_S = 0.005
#: Ops beyond the tail percentile (the definition of ``op_tail_ms``).
TAIL_BEYOND = 10

#: ECO edits per round (the ``pick_eco_batch`` count of the
#: ``incremental`` bench step).
ECO_EDITS = 8
#: Rounds of the ``eco`` op loop checked against a fresh engine.
ECO_CHECKS = 4


def inputs_dir(seed: int) -> Path:
    """Where the generated inputs of one seed are cached."""
    return CACHE / "inputs" / f"seed-{seed}"


def ops_for(workload: str, seconds: float) -> int:
    """The fixed op count of a run at ``--seconds``."""
    return max(MIN_OPS, math.ceil(seconds / NOMINAL_OP_S[workload]))


def tail_index(n: int) -> tuple[int, float]:
    """``(index into the sorted latencies, percentile)`` of the tail.

    The highest percentile with at least ``TAIL_BEYOND`` ops above it:
    the ``TAIL_BEYOND + 1``-th largest sample.
    """
    index = max(0, n - TAIL_BEYOND - 1)
    return index, 100.0 * (index + 1) / n


def subprocess_env() -> dict:
    """Environment of every child: the program on the path, one BLAS
    thread, fixed string hashing, and no injected faults."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env.pop("REPRO_FAULTS", None)
    return env


def report_rows(paths) -> list:
    """A report as plain data: every field of every path, in order."""
    return [[p.slack, p.credit, p.pre_cppr_slack, list(p.pins),
             p.launch_ff, p.capture_ff, p.level, p.family.value,
             p.mode.value] for p in paths]


def digest(rows) -> str:
    """Stable fingerprint of report data (floats by their repr)."""
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def read_json(path: Path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_json(path: Path, payload) -> None:
    """Write atomically, so a killed run never leaves half a file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + f".{os.getpid()}.tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    os.replace(tmp, path)
