"""Seeded input generators for the perfbench workloads.

Run as its own process before the measured one; the output is cached
under ``.perfbench/inputs/seed-<n>/`` so repeated runs at one seed
reuse it::

    PYTHONPATH=src python3 perfbench/gen.py --seed 7 --what eco --rounds 500
    PYTHONPATH=src python3 perfbench/gen.py --seed 7 --what yosys

* ``eco`` — ``leon2.cppr``: the suite's leon2 design (600 FFs, clock
  depth 10, ~27k pins) built with the benchmark's seed and written by
  ``tau_format.dumps_design``; and ``eco-<rounds>.json``: ``rounds``
  batches of 8 seeded off-critical delay edits on it (edges from
  ``competitive_edit_pool`` of ``benchmarks/harness.py``), each batch
  drawn against the delays the previous batches left.
* ``yosys`` — ``mcmm.json`` + ``mcmm.sdf``: a Yosys ``write_json``
  netlist with a balanced binary clock-buffer tree (8 buffer levels,
  clock depth D=10 once elaborated) feeding 128 flip-flops, 8 layers
  of 128 2-input gates between them (~8.7k pins after rise/fall
  expansion), and an SDF with seeded ``(min:typ:max)`` IOPATH and
  INTERCONNECT triples.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from unittest import mock

from common import ECO_EDITS, ROOT, inputs_dir, write_json


# ----------------------------------------------------------------------
# leon2-shape .cppr
# ----------------------------------------------------------------------
def make_leon2(seed: int, out) -> None:
    from repro.io import tau_format
    from repro.workloads.suite import SUITE_SPECS, build_design

    # The suite's leon2 design, with the benchmark's seed in place of
    # the suite's (the last field of its spec).
    spec = SUITE_SPECS["leon2"]
    with mock.patch.dict(SUITE_SPECS, leon2=(*spec[:-1], seed)):
        graph, constraints = build_design("leon2")
    text = tau_format.dumps_design(graph, constraints)
    tmp = out.with_suffix(".tmp")
    tmp.write_text(text)
    tmp.replace(out)


# ----------------------------------------------------------------------
# ECO edit batches
# ----------------------------------------------------------------------
def eco_rounds(graph, pool: list[tuple], rng,
               rounds: int) -> list[list[list]]:
    """``rounds`` batches of ``ECO_EDITS`` distinct-edge shrink edits.

    The ``pick_eco_batch`` rule: each edit re-reads the edge's current
    ``(early, late)`` (edits of earlier batches included) and shrinks
    the interval from both ends by ``min(0.25 * margin,
    0.45 * (late - early))``.  Edits are ``[driver, sink, early, late]``
    with pin names, the shape the server's update endpoint takes.
    """
    current: dict[tuple[int, int], tuple[float, float]] = {}
    batches = []
    for _ in range(rounds):
        shuffled = list(pool)
        rng.shuffle(shuffled)
        batch, seen = [], set()
        for u, v, margin in shuffled:
            if len(batch) == ECO_EDITS:
                break
            if (u, v) in seen:
                continue
            seen.add((u, v))
            early, late = current.get((u, v)) or next(
                (e, l) for t, e, l in graph.fanout[u] if t == v)
            d = min(0.25 * margin, 0.45 * (late - early))
            current[(u, v)] = (early + d, late - d)
            batch.append([graph.pin_name(u), graph.pin_name(v),
                          early + d, late - d])
        if len(batch) < ECO_EDITS:
            raise RuntimeError(
                f"edit pool too small: wanted {ECO_EDITS} edits, found "
                f"{len(batch)} distinct competitive edges")
        batches.append(batch)
    return batches


#: How far an edited edge must lose the late and the early race at its
#: sink (``competitive_edit_pool``'s ``margin``).  The bench step's 0.3
#: lets some seeds' designs pick edges whose edits drop cached families
#: and force a re-search, so those seeds' ECO rounds cost several times
#: more; at 0.45 none of the first 30 seeds dropped a family in 150
#: rounds.
EDIT_MARGIN = 0.45


def make_eco(seed: int, rounds: int, design, out) -> None:
    import repro
    from repro import TimingAnalyzer

    sys.path.insert(0, str(ROOT / "benchmarks"))
    from harness import competitive_edit_pool

    imported = repro.load_design(design)
    analyzer = TimingAnalyzer(imported.graph, imported.constraints)
    pool = competitive_edit_pool(analyzer, margin=EDIT_MARGIN)
    rng = random.Random(seed)
    write_json(out, {"rounds": eco_rounds(imported.graph, pool, rng,
                                          rounds)})


# ----------------------------------------------------------------------
# Yosys write_json netlist + SDF with min:typ:max triples
# ----------------------------------------------------------------------
GATES = ("$_AND_", "$_NAND_", "$_OR_", "$_NOR_", "$_XOR_", "$_XNOR_")
SDF_CELL = {"$_AND_": "AND2_X1", "$_NAND_": "NAND2_X1",
            "$_OR_": "OR2_X1", "$_NOR_": "NOR2_X1", "$_XOR_": "XOR2_X1",
            "$_XNOR_": "XNOR2_X1"}


def _triple(rng, base: float) -> str:
    low = base * (1.0 - rng.uniform(0.10, 0.25))
    high = base * (1.0 + rng.uniform(0.20, 0.45))
    return f"({low:.4f}:{base:.4f}:{high:.4f})"


#: Shape of the mcmm design: clock-buffer levels, flip-flops, gate
#: layers, gates per layer, and primary inputs/outputs.
CLOCK_LEVELS, NUM_FFS, GATE_LAYERS, WIDTH, NUM_PORTS = 8, 128, 8, 128, 8
#: Seed of the mcmm netlist's gate kinds and wiring; the workload seed
#: draws every SDF delay.  With the wiring drawn from the workload
#: seed too, the op's search work varied by ~15% between seeds.
SHAPE_SEED = 1


def yosys_design(seed: int) -> tuple[str, str]:
    """``(netlist JSON text, SDF text)`` of one seeded design.

    The clock port drives a balanced binary tree of ``CLOCK_LEVELS``
    buffer levels; flip-flops hang off its leaves, so launch/capture
    pairs share anywhere from one buffer to a whole leaf branch.  The
    datapath is ``GATE_LAYERS`` layers of ``WIDTH`` 2-input gates, each
    gate reading one input near its own column of the previous layer
    and one anywhere in it; flip-flop D pins and outputs read the last
    layer.  The wiring comes from ``SHAPE_SEED``, the delays from
    ``seed``.
    """
    rng, shape = random.Random(seed), random.Random(SHAPE_SEED)
    next_bit = iter(range(2, 1 << 30)).__next__
    ports = {"clk": {"direction": "input", "bits": [next_bit()]}}
    cells: dict[str, dict] = {}
    drivers: dict[int, str] = {}   # net bit -> "instance/pin" driving it
    sdf_cells: list[str] = []
    wires: list[str] = []

    def sink(bit: int, pin: str) -> None:
        driver = drivers.get(bit)
        if driver is not None:
            wires.append(f"      (INTERCONNECT {driver} {pin} "
                         f"{_triple(rng, rng.uniform(0.004, 0.012))})")

    # Clock tree: level 0 is one root buffer, level l has 2**l.
    level = [ports["clk"]["bits"][0]]
    for depth in range(CLOCK_LEVELS):
        outs = []
        for index in range(1 << depth):
            name = f"cb{depth}_{index}"
            a, y = level[index >> 1], next_bit()
            cells[name] = {"type": "$_BUF_",
                           "connections": {"A": [a], "Y": [y]}}
            sink(a, f"{name}/A0")
            drivers[y] = f"{name}/Y"
            sdf_cells.append(
                f'  (CELL (CELLTYPE "BUF_X1") (INSTANCE {name})\n'
                f'    (DELAY (ABSOLUTE (IOPATH A0 Y '
                f'{_triple(rng, rng.uniform(0.08, 0.10))}))))')
            outs.append(y)
        level = outs
    leaves = level

    sources = []
    for index in range(NUM_PORTS):
        bit = next_bit()
        ports[f"in{index}"] = {"direction": "input", "bits": [bit]}
        sources.append(bit)
    ffs = []
    for index in range(NUM_FFS):
        name, q = f"ff{index}", next_bit()
        ffs.append((name, q))
        drivers[q] = f"{name}/Q"
        sources.append(q)
        sdf_cells.append(
            f'  (CELL (CELLTYPE "DFF_X1") (INSTANCE {name})\n'
            f'    (DELAY (ABSOLUTE (IOPATH (posedge CK) Q '
            f'{_triple(rng, rng.uniform(0.15, 0.20))} '
            f'{_triple(rng, rng.uniform(0.15, 0.20))}))))')

    prev = sources
    for layer in range(GATE_LAYERS):
        outs = []
        for index in range(WIDTH):
            name = f"g{layer}_{index}"
            kind = shape.choice(GATES)
            near = round(index * len(prev) / WIDTH)
            a = prev[(near + shape.randint(-2, 2)) % len(prev)]
            b = prev[shape.randrange(len(prev))]
            y = next_bit()
            cells[name] = {"type": kind,
                           "connections": {"A": [a], "B": [b], "Y": [y]}}
            sink(a, f"{name}/A0")
            sink(b, f"{name}/A1")
            drivers[y] = f"{name}/Y"
            arcs = "\n".join(
                f"      (IOPATH {pin} Y "
                f"{_triple(rng, rng.uniform(0.10, 0.22))} "
                f"{_triple(rng, rng.uniform(0.10, 0.22))})"
                for pin in ("A0", "A1"))
            sdf_cells.append(
                f'  (CELL (CELLTYPE "{SDF_CELL[kind]}") '
                f'(INSTANCE {name})\n'
                f'    (DELAY (ABSOLUTE\n{arcs}\n    )))')
            outs.append(y)
        prev = outs

    for index, (name, q) in enumerate(ffs):
        d = prev[shape.randrange(len(prev))]
        ck = leaves[index % len(leaves)]
        cells[name] = {"type": "$_DFF_P_",
                       "connections": {"C": [ck], "D": [d], "Q": [q]}}
        sink(d, f"{name}/D")
        sink(ck, f"{name}/CK")
    # Distinct nets: the frontend names a net after one port only.
    for index, bit in enumerate(shape.sample(prev, NUM_PORTS)):
        ports[f"out{index}"] = {"direction": "output", "bits": [bit]}

    netlist = json.dumps({
        "creator": "perfbench gen.py",
        "modules": {"mcmm": {"attributes": {"top": 1}, "ports": ports,
                             "cells": cells, "netnames": {}}}})
    sdf = "\n".join(
        ['(DELAYFILE', '  (SDFVERSION "3.0")', '  (DESIGN "mcmm")',
         '  (DIVIDER /)', '  (TIMESCALE 1ns)', *sdf_cells,
         '  (CELL (CELLTYPE "mcmm") (INSTANCE)',
         '    (DELAY (ABSOLUTE', *wires, '    )))', ')']) + "\n"
    return netlist, sdf


def make_yosys(seed: int, netlist_out, sdf_out) -> None:
    netlist, sdf = yosys_design(seed)
    # The netlist goes last: ``ensure`` takes it as the mark of a
    # complete pair.
    for out, text in ((sdf_out, sdf), (netlist_out, netlist)):
        tmp = out.with_suffix(".tmp")
        tmp.write_text(text)
        tmp.replace(out)


def ensure(seed: int, what: str, rounds: int = 0) -> None:
    """Generate one input for ``seed`` unless it is already cached."""
    base = inputs_dir(seed)
    base.mkdir(parents=True, exist_ok=True)
    if what == "eco":
        leon2 = base / "leon2.cppr"
        if not leon2.exists():
            make_leon2(seed, leon2)
        out = base / f"eco-{rounds}.json"
        if not out.exists():
            make_eco(seed, rounds, leon2, out)
    else:
        netlist = base / "mcmm.json"
        if not netlist.exists():
            make_yosys(seed, netlist, base / "mcmm.sdf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--what", choices=["eco", "yosys"],
                        required=True)
    parser.add_argument("--rounds", type=int, default=0)
    args = parser.parse_args(argv)
    ensure(args.seed, args.what, args.rounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
