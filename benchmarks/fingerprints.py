#!/usr/bin/env python3
"""Print one report digest per (design, corner, backend, executor, mode, k).

Run from the repository root::

    PYTHONPATH=src python benchmarks/fingerprints.py > after.txt
    PYTHONPATH=src python benchmarks/fingerprints.py --mcmm DIR [DIR ...]
    PYTHONPATH=src python benchmarks/fingerprints.py --designs '' \
        --eco DIR [DIR ...]

A change that must keep reports bit-identical runs this in two
checkouts (before and after) and diffs the outputs; any differing line
names the configuration whose report moved.

Each digest hashes every path of one top-``k`` report, in report order:
``float.hex`` of its slack and credit, its pins, its launch and capture
flip-flops, its family and its level.  The set covers:

* the suite designs (``--designs``, default leon2 and vga_lcdv2) at
  ``--scale`` (default 1.0), k 1/10/100/500, setup and hold, on the
  default backend under the serial executor and two process workers;
* for every ``--mcmm`` directory holding ``perfbench/gen.py``'s
  ``mcmm.json`` and ``mcmm.sdf`` (a Yosys netlist and its
  min/typ/max SDF), every corner at k 1/10/50, setup and hold, on the
  scalar and array backends;
* for every ``--eco`` directory holding ``perfbench/gen.py``'s
  ``leon2.cppr`` and ``eco-<n>.json``, one incremental session per
  rounds file on the default backend: top-50 setup and hold when it
  opens (round 0), then again after each round's update.

Each engine query runs on an emptied select cache, so every digest of
the first two sets comes from a full analysis.  The session reads do
not: they go through the session's caches as a user's reads would,
which is what their digests pin.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from repro import (CpprEngine, CpprOptions, DelayUpdate, TimingAnalyzer,
                   load_design)
from repro.cppr.parallel import available_executors
from repro.workloads.suite import build_design

MODES = ("setup", "hold")
SUITE_K = (1, 10, 100, 500)
MCMM_K = (1, 10, 50)
ECO_K = 50


def digest(paths) -> str:
    """Hash of a report's bits: slack, credit, pins, FFs, family, level."""
    rows = [(p.slack.hex(), p.credit.hex(), tuple(p.pins), p.launch_ff,
             p.capture_ff, p.family.name, p.level) for p in paths]
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def suite_lines(designs: list[str], scale: float):
    executors = [("serial", None)]
    if "process" in available_executors():
        executors.append(("process", 2))
    for design in designs:
        graph, constraints = build_design(design, scale=scale)
        analyzer = TimingAnalyzer(graph, constraints)
        for executor, workers in executors:
            engine = CpprEngine(analyzer, CpprOptions(executor=executor,
                                                      workers=workers))
            label = executor if workers is None else f"{executor}x{workers}"
            for mode in MODES:
                for k in SUITE_K:
                    engine.clear_cache()
                    yield (f"{design}@{scale:g}", "-", engine.backend,
                           label, mode, k,
                           digest(engine.top_paths(k, mode)))


def mcmm_lines(directory: Path):
    imported = load_design(directory / "mcmm.json",
                           sdf=directory / "mcmm.sdf", sdf_corners=True)
    analyzer = TimingAnalyzer(imported.graph, imported.constraints)
    for backend in ("scalar", "array"):
        engine = CpprEngine(analyzer, CpprOptions(
            backend=backend, corners=imported.corners))
        for mode in MODES:
            for k in MCMM_K:
                engine.clear_cache()
                by_corner = engine.top_paths_by_corner(k, mode)
                for corner, paths in by_corner.items():
                    yield (f"mcmm:{directory.name}", corner, backend,
                           "serial", mode, k, digest(paths))


def eco_lines(directory: Path):
    imported = load_design(directory / "leon2.cppr")
    analyzer = TimingAnalyzer(imported.graph, imported.constraints)
    for rounds_file in sorted(directory.glob("eco-*.json")):
        rounds = json.loads(rounds_file.read_text())["rounds"]
        session = CpprEngine(analyzer).session()
        label = f"eco:{directory.name}/{rounds_file.stem}"
        for index in range(len(rounds) + 1):
            if index:
                session.update([DelayUpdate(*edit)
                                for edit in rounds[index - 1]])
            for mode in MODES:
                yield (f"{label}#{index}", "-", session.backend,
                       "serial", mode, ECO_K,
                       digest(session.top_paths(ECO_K, mode)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--designs", default="leon2,vga_lcdv2",
                        help="comma-separated suite designs "
                             "(empty for none)")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--mcmm", type=Path, nargs="*", default=[],
                        metavar="DIR",
                        help="directories holding mcmm.json + mcmm.sdf")
    parser.add_argument("--eco", type=Path, nargs="*", default=[],
                        metavar="DIR",
                        help="directories holding leon2.cppr + "
                             "eco-<n>.json")
    args = parser.parse_args(argv)
    designs = [name for name in args.designs.split(",") if name]
    sources = [suite_lines(designs, args.scale)]
    sources += [mcmm_lines(directory) for directory in args.mcmm]
    sources += [eco_lines(directory) for directory in args.eco]
    count = 0
    for source in sources:
        for line in source:
            print(" ".join(map(str, line)), flush=True)
            count += 1
    print(f"{count} fingerprints", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
