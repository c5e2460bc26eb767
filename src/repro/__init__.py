"""repro — Common Path Pessimism Removal for static timing analysis.

A from-scratch Python implementation of *"A Provably Good and Practically
Efficient Algorithm for Common Path Pessimism Removal in Large Designs"*
(Guo, Huang, Lin — DAC 2021), together with the full substrate it needs:
a netlist/timing-graph model, a conventional STA engine, three baseline
CPPR timer architectures, synthetic workload generation, and file I/O.

Quickstart::

    from repro import (Netlist, TimingConstraints, TimingAnalyzer,
                       CpprEngine)

    netlist = Netlist("demo")
    netlist.set_clock_root("clk")
    ...                              # build the design
    graph = netlist.elaborate()
    analyzer = TimingAnalyzer(graph, TimingConstraints(clock_period=5.0))
    engine = CpprEngine(analyzer)
    for path in engine.top_paths(k=10, mode="setup"):
        print(path.slack, path.pins)
"""

from repro.baselines import (BlockBasedTimer, BranchBoundTimer,
                             ExhaustiveTimer, PairEnumTimer)
from repro.circuit import (ClockTree, Netlist, Pin, PinKind, TimingGraph,
                           validate_graph)
from repro.cppr import (CpprEngine, CpprOptions, PathFamily, TimingPath,
                        endpoint_paths, format_path, format_path_report,
                        pair_paths)
from repro.exceptions import (AnalysisError, CircuitStructureError,
                              DegradedResultWarning, ExecutionError,
                              FormatError, ReproError, SourceLocation,
                              TimingConstraintError)
from repro.io import (ImportedDesign, detect_format, load_design,
                      register_format, save_design, save_design_json)
from repro.pipeline import CpprSession
from repro.sta import AnalysisMode, TimingAnalyzer, TimingConstraints
from repro.sta.incremental import DelayUpdate
from repro.workloads import (RandomDesignSpec, build_design, design_names,
                             design_statistics, random_design)

__version__ = "1.0.0"

__all__ = [
    "AnalysisMode",
    "AnalysisError",
    "BlockBasedTimer",
    "BranchBoundTimer",
    "CircuitStructureError",
    "ClockTree",
    "CpprEngine",
    "CpprOptions",
    "CpprSession",
    "DegradedResultWarning",
    "DelayUpdate",
    "ExecutionError",
    "ExhaustiveTimer",
    "FormatError",
    "ImportedDesign",
    "Netlist",
    "PairEnumTimer",
    "PathFamily",
    "Pin",
    "PinKind",
    "RandomDesignSpec",
    "ReproError",
    "SourceLocation",
    "TimingAnalyzer",
    "TimingConstraintError",
    "TimingConstraints",
    "TimingGraph",
    "TimingPath",
    "__version__",
    "build_design",
    "design_names",
    "design_statistics",
    "detect_format",
    "endpoint_paths",
    "format_path",
    "format_path_report",
    "load_design",
    "pair_paths",
    "random_design",
    "register_format",
    "save_design",
    "save_design_json",
    "validate_graph",
]
