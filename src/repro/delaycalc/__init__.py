"""Delay calculation: slews, loads, lookup tables, OCV derates.

The paper's problem statement begins with "a circuit graph with updated
delay values" — some delay calculator produced those values first.  This
package is that substrate: a liberty-style non-linear delay model
(delay and output slew as 2-D lookup tables over input slew and output
load), a fanout-based wire load model, early/late on-chip-variation
derates, and a calculator that walks a parsed Verilog module in
topological order annotating every cell arc.

The output plugs straight into the rise/fall expansion: the *timed flow*
(:func:`~repro.delaycalc.timed_flow.read_timed_design`) is a drop-in
alternative to ``repro.load_design(path, format="verilog", sdc=...)``
where arc delays come from the NLDM tables instead of the library's
fixed values — including the clock buffers, whose early/late spread
(and hence every CPPR credit) then emerges from the derates rather
than being hand-annotated.
"""

from repro.delaycalc.calc import CalculatedDesignTiming, calculate_timing
from repro.delaycalc.lut import LookupTable2D
from repro.delaycalc.models import (ArcTiming, CellTiming, Derates,
                                    FlipFlopTiming, TimingLibrary,
                                    default_timing)
from repro.delaycalc.timed_flow import elaborate_timed_design, \
    read_timed_design
from repro.delaycalc.wire import WireLoadModel

__all__ = [
    "ArcTiming",
    "CalculatedDesignTiming",
    "CellTiming",
    "Derates",
    "FlipFlopTiming",
    "LookupTable2D",
    "TimingLibrary",
    "WireLoadModel",
    "calculate_timing",
    "default_timing",
    "elaborate_timed_design",
    "read_timed_design",
]
