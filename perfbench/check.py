"""Reference checks of one perfbench run, in their own process.

Reads what ``work.py`` wrote and recomputes the answers another way:

* ``eco``: a fresh engine on ``apply_delay_updates`` of the edits up to
  each of a fixed set of rounds;
* ``mcmm``: an independent single-corner scalar engine per realized
  corner, plus the default engine against the exhaustive oracle on a
  small design of the same seed;
* ``serve``: an in-process replay of the same session, page by page.

Takes the result file of a run's measured process and writes
``{"failed": [op, ...], "first_ok": bool, "notes": [...]}``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from common import (ECO_CHECKS, K_ECO, K_MCMM, MODES, digest, read_json,
                    report_rows, write_json)


def exhaustive_ok(seed: int) -> list[str]:
    """The engine against full path enumeration on a small design."""
    from repro import (CpprEngine, ExhaustiveTimer, RandomDesignSpec,
                       TimingAnalyzer, TimingConstraints, random_design)
    from repro.workloads.suite import suggest_clock_period

    graph = random_design(RandomDesignSpec(
        seed=seed, num_ffs=12, num_gates=60, clock_depth=4,
        max_gate_inputs=3))
    analyzer = TimingAnalyzer(
        graph, TimingConstraints(suggest_clock_period(graph)))
    notes = []
    for mode in MODES:
        ours = CpprEngine(analyzer).top_slacks(10, mode)
        oracle = ExhaustiveTimer(analyzer).top_slacks(10, mode)
        # Enumeration sums delays in another order: equal to 1e-9.
        if len(ours) != len(oracle) or any(
                abs(a - b) > 1e-9 for a, b in zip(ours, oracle)):
            notes.append(f"exhaustive {mode}: {ours} != {oracle}")
    return notes


def check_mcmm(inputs: Path, seed: int):
    """``(set-up digest, op -> reference digest, notes)``."""
    import repro
    from repro import CpprEngine, CpprOptions, TimingAnalyzer

    imported = repro.load_design(inputs / "mcmm.json",
                                 sdf=inputs / "mcmm.sdf",
                                 sdf_corners=True)
    analyzer = TimingAnalyzer(imported.graph, imported.constraints)
    realized = imported.corners.realize(analyzer, "scalar")
    scalar = CpprOptions(backend="scalar")
    engines = {name: CpprEngine(a, scalar) for name, a in realized.items()}
    expect = digest({mode: {name: report_rows(e.top_paths(K_MCMM, mode))
                            for name, e in engines.items()}
                     for mode in MODES})
    return expect, lambda _op: expect, exhaustive_ok(seed)


def checked_rounds(ops: int) -> list[int]:
    """The fixed subset of ECO rounds compared with a fresh engine."""
    return sorted({(ops - 1) * i // (ECO_CHECKS - 1)
                   for i in range(ECO_CHECKS)})


def check_eco(inputs: Path, rounds: Path):
    import repro
    from repro import CpprEngine, DelayUpdate, TimingAnalyzer
    from repro.sta.incremental import apply_delay_updates

    imported = repro.load_design(inputs / "leon2.cppr")
    graph, constraints = imported.graph, imported.constraints

    def answer(g) -> str:
        engine = CpprEngine(TimingAnalyzer(g, constraints))
        return digest({mode: report_rows(engine.top_paths(K_ECO,
                                                          mode))
                       for mode in MODES})

    first = answer(graph)
    batches = read_json(rounds)["rounds"]
    wanted = checked_rounds(len(batches))
    reference = {}
    for index in range(wanted[-1] + 1):
        graph = apply_delay_updates(
            graph, [DelayUpdate(*edit) for edit in batches[index]])
        if index in wanted:
            reference[index] = answer(graph)
    return first, reference.get, []


def check_serve(inputs: Path, rounds: Path):
    import repro
    from repro import CpprEngine, DelayUpdate, TimingAnalyzer
    from work import pages

    imported = repro.load_design(inputs / "leon2.cppr")
    session = CpprEngine(TimingAnalyzer(imported.graph,
                                        imported.constraints)).session()

    def answer() -> str:
        return digest(pages(session.analyzer,
                            [session.top_paths(K_ECO, mode)
                             for mode in MODES]))

    first = answer()
    reference = {}
    for index, batch in enumerate(read_json(rounds)["rounds"]):
        session.update([DelayUpdate(*edit) for edit in batch])
        reference[index] = answer()
    return first, reference.get, []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--rounds", type=Path, default=None)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    result = read_json(args.result)
    checks = {"mcmm": lambda: check_mcmm(args.inputs, args.seed),
              "eco": lambda: check_eco(args.inputs, args.rounds),
              "serve": lambda: check_serve(args.inputs, args.rounds)}
    first, reference, notes = checks[args.workload]()
    # A missing digest means the op raised; it is counted as failed
    # already.  Ops without a reference (eco rounds between the checked
    # ones) are not compared.
    failed = [op for op, got in enumerate(result["digests"])
              if got is not None and reference(op) not in (None, got)]
    write_json(args.out, {"failed": failed,
                          "first_ok": digest(result["first"]) == first,
                          "notes": notes})
    return 0


if __name__ == "__main__":
    sys.exit(main())
