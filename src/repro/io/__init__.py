"""Design file I/O: the unified frontend registry plus serializers.

Designs enter through one entry point, :func:`load_design`
(:mod:`repro.io.frontend`), which dispatches on the registered format:

* ``tau`` (:mod:`~repro.io.tau_format`) — line-oriented text in the
  spirit of the TAU contest inputs (``.cppr``), human-diffable.
* ``json`` (:mod:`~repro.io.json_format`) — the neutral
  :class:`DesignDescription` as JSON.
* ``verilog`` (:mod:`~repro.io.verilog` + :mod:`~repro.io.flow`) —
  structural netlist + SDC constraints.
* ``yosys`` (:mod:`~repro.io.yosys_json`) — Yosys ``write_json``
  output, mapped onto the generic library.

Netlist formats take an optional SDF side file
(:mod:`~repro.io.sdf`) for early/late delay annotation and min/typ/max
corner extraction.  New formats plug in via :func:`register_format`.
Writing still goes through the per-format ``save_*`` functions.  See
``docs/FORMATS.md``.
"""

from repro.io.design_io import DesignDescription, describe_design, \
    reconstruct_design
from repro.io.eco import EcoUpdates, load_eco_updates, save_eco_updates
from repro.io.frontend import (FormatSpec, ImportedDesign, detect_format,
                               formats, load_design, register_format)
from repro.io.json_format import save_design_json
from repro.io.tau_format import save_design

__all__ = [
    "DesignDescription",
    "EcoUpdates",
    "FormatSpec",
    "ImportedDesign",
    "describe_design",
    "detect_format",
    "formats",
    "load_design",
    "load_eco_updates",
    "reconstruct_design",
    "register_format",
    "save_design",
    "save_design_json",
    "save_eco_updates",
]
