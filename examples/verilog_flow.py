#!/usr/bin/env python3
"""The file-based flow: Verilog netlist + SDC constraints -> CPPR report.

Reads ``examples/data/pipeline.v`` (a 3-stage pipelined datapath with a
buffered clock network) and its SDC file, recovers the clock tree from
the netlist's buffer chain, expands every signal into rise/fall
transitions with library-driven unateness, and reports the post-CPPR
critical paths with transitions annotated.

Run:  python examples/verilog_flow.py [design.v design.sdc]
"""

import sys
from pathlib import Path

from repro import (CpprEngine, TimingAnalyzer, design_statistics,
                   load_design)

DATA = Path(__file__).parent / "data"


def main():
    if len(sys.argv) == 3:
        verilog_path, sdc_path = sys.argv[1], sys.argv[2]
    else:
        verilog_path = DATA / "pipeline.v"
        sdc_path = DATA / "pipeline.sdc"

    imported = load_design(verilog_path, format="verilog", sdc=sdc_path)
    design, graph, constraints = (imported.design, imported.graph,
                                  imported.constraints)

    print(f"read {verilog_path}")
    print(f"  {graph.describe()}")
    print(f"  clock period {constraints.clock_period} "
          f"(from {sdc_path})")
    tree = graph.clock_tree
    buffers = [name for name, ff in zip(tree.names, tree.ff_of_node)
               if ff < 0 and not name.endswith("@ck")][1:]
    print(f"  recovered clock buffers: {', '.join(buffers)}")
    stats = design_statistics(graph)
    print(f"  FF connectivity {stats.ff_connectivity:.2f}, "
          f"D = {stats.num_levels}")
    print()

    analyzer = TimingAnalyzer(graph, constraints)
    engine = CpprEngine(analyzer)
    for mode in ("setup", "hold"):
        print(f"top-3 post-CPPR {mode} paths:")
        for rank, path in enumerate(engine.top_paths(3, mode), start=1):
            print(f"  {rank}. slack {path.slack:+.4f} "
                  f"(credit {path.credit:+.3f})")
            print(f"     {design.pretty_path(path)}")
        print()


if __name__ == "__main__":
    main()
