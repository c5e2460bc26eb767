"""JSON design format: the neutral description, serialized verbatim.

Registered as the ``json`` frontend in :mod:`repro.io.frontend`; load
through :func:`repro.io.load_design`.
"""

from __future__ import annotations

import json
import os

from repro.circuit.graph import TimingGraph
from repro.exceptions import CircuitStructureError, FormatError
from repro.io.design_io import (describe_design, description_from_dict,
                                description_to_dict, reconstruct_design)
from repro.sta.constraints import TimingConstraints

__all__ = ["save_design_json"]

_FORMAT_VERSION = 1


def save_design_json(graph: TimingGraph, constraints: TimingConstraints,
                     path: str | os.PathLike) -> None:
    """Write a design as JSON."""
    payload = {
        "format": "repro-cppr-design",
        "version": _FORMAT_VERSION,
        "design": description_to_dict(describe_design(graph, constraints)),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)


def _load_design_json(path: str | os.PathLike
                      ) -> tuple[TimingGraph, TimingConstraints]:
    """Read a design written by :func:`save_design_json`."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON: {exc.msg}", path=str(path),
                              line=exc.lineno, col=exc.colno) from exc
    if (not isinstance(payload, dict)
            or payload.get("format") != "repro-cppr-design"):
        raise FormatError("not a repro CPPR design file", path=str(path))
    if payload.get("version") != _FORMAT_VERSION:
        raise FormatError(
            f"unsupported format version {payload.get('version')!r}",
            path=str(path))
    try:
        return reconstruct_design(description_from_dict(payload["design"]))
    except CircuitStructureError as exc:
        raise FormatError(f"invalid design: {exc}",
                          path=str(path)) from exc
