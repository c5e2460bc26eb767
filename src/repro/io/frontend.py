"""The unified design frontend: one registry, many formats.

Every way a design can enter the engine — the TAU-style ``.cppr`` text
format, its JSON twin, structural Verilog + SDC, Yosys ``write_json``
netlists — is a registered :class:`FormatSpec`.  Callers use one entry
point::

    from repro.io import load_design
    imported = load_design("counter.json", format="auto",
                           sdf="counter.sdf")
    analyzer = TimingAnalyzer(imported.graph, imported.constraints)

and get back an :class:`ImportedDesign`: the timing graph, the
constraints, optional SDF-derived min/typ/max corners, and provenance
metadata — the same shape regardless of format.  ``format="auto"``
resolves by file extension, with registered sniffers disambiguating
shared extensions (a ``.json`` file is a Yosys netlist if it carries a
``modules`` object, a native design dump if it carries the
``repro-cppr-design`` tag).

Netlist formats (``verilog``, ``yosys``) accept an SDF side file whose
DELAY annotations replace the library's fixed arc delays
(:func:`repro.io.sdf.build_overrides`), and can additionally realize
the SDF min/typ/max triples as a :class:`~repro.corners.CornerSet` for
MCMM analysis (``sdf_corners=True``).

Third-party importers plug in with :func:`register_format`; every
parse failure, whatever the format, surfaces as a
:class:`~repro.exceptions.FormatError` with a ``path:line:col``
prefix — never a partially-built design.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.exceptions import FormatError
from repro.faults import check as _fault_check
from repro.sta.constraints import TimingConstraints

__all__ = [
    "FormatSpec",
    "ImportedDesign",
    "detect_format",
    "formats",
    "load_design",
    "register_format",
]

#: How much of the file the ``format="auto"`` sniffers get to see.
_SNIFF_BYTES = 4096


@dataclass
class ImportedDesign:
    """What every frontend returns: a design plus its provenance.

    Iterating yields ``(graph, constraints)``, so call sites can
    unpack it as a two-tuple::

        graph, constraints = load_design(path)
    """

    graph: object
    constraints: TimingConstraints
    format: str
    path: str
    #: The rise/fall-expanded design (netlist formats only) — carries
    #: pretty-printing helpers; ``None`` for graph-native formats.
    design: object | None = None
    #: SDF-derived min/typ/max corners (``sdf_corners=True`` only).
    corners: object | None = None
    sdf_path: str | None = None
    #: Format-specific provenance (tool creator, module list, ...).
    meta: dict = field(default_factory=dict)

    def __iter__(self) -> Iterator:
        yield self.graph
        yield self.constraints


@dataclass(frozen=True)
class FormatSpec:
    """A registered design format.

    ``loader(path, options) -> ImportedDesign`` receives the validated
    keyword options of :func:`load_design`.  ``sniff(head)`` (optional)
    sees the first few KiB of the file as text and votes when several
    formats share an extension: ``True`` claims the file, ``False``
    refuses it, ``None`` abstains.
    """

    name: str
    description: str
    extensions: tuple[str, ...]
    loader: Callable[[str, dict], ImportedDesign]
    sniff: Callable[[str], bool | None] | None = None


_REGISTRY: dict[str, FormatSpec] = {}


def register_format(spec: FormatSpec) -> FormatSpec:
    """Register (or replace) a frontend under ``spec.name``."""
    if not spec.name or any(c in spec.name for c in " \t\n,"):
        raise ValueError(f"invalid format name {spec.name!r}")
    _REGISTRY[spec.name] = spec
    return spec


def formats() -> tuple[FormatSpec, ...]:
    """The registered formats, in registration order."""
    return tuple(_REGISTRY.values())


def _sniff_head(path: str) -> str:
    try:
        with open(path, "rb") as handle:
            return handle.read(_SNIFF_BYTES).decode("utf-8", "replace")
    except OSError as exc:
        raise FormatError(f"cannot read design file: {exc.strerror}",
                          path=path) from exc


def detect_format(path: str | os.PathLike) -> str:
    """The registered format name for ``path`` (``format="auto"``).

    Resolution is by extension; when several formats claim the same
    extension their sniffers inspect the file head to break the tie.
    """
    path = str(path)
    _, ext = os.path.splitext(path)
    ext = ext.lower()
    candidates = [spec for spec in _REGISTRY.values()
                  if ext in spec.extensions]
    if not candidates:
        known = sorted({e for s in _REGISTRY.values()
                        for e in s.extensions})
        raise FormatError(
            f"unrecognized design extension {ext!r} (known: "
            f"{', '.join(known)}); pass format= explicitly", path=path)
    if len(candidates) == 1:
        return candidates[0].name
    head = _sniff_head(path)
    for spec in candidates:
        if spec.sniff is not None and spec.sniff(head) is True:
            return spec.name
    names = ", ".join(spec.name for spec in candidates)
    raise FormatError(
        f"ambiguous {ext!r} file: no registered sniffer claims it "
        f"(candidates: {names}); pass format= explicitly", path=path)


_KNOWN_OPTIONS = ("sdc", "sdf", "library", "clock_period",
                  "sdf_corners", "sdf_members")


def load_design(path: str | os.PathLike, format: str = "auto",
                **options) -> ImportedDesign:
    """Load a design through the frontend registry.

    Options (validity depends on the format):

    ``sdc``
        SDC file path (or parsed ``SdcConstraints``) — required for
        ``verilog``, optional for ``yosys`` (synthesized when absent).
    ``sdf``
        SDF file path (or parsed ``SdfDelayFile``) annotating the
        netlist's early/late delays; netlist formats only.
    ``library``
        :class:`~repro.library.cells.StandardCellLibrary`
        (default: :func:`repro.library.standard.default_library`).
    ``clock_period``
        Clock period for a synthesized ``yosys`` clock (default: a
        realistically-critical period via
        :func:`repro.workloads.suite.suggest_clock_period`).
    ``sdf_corners``
        Realize the SDF min/typ/max triples as a
        :class:`~repro.corners.CornerSet` on the result (default off).
    ``sdf_members``
        Which triple members become corners
        (default ``("min", "typ", "max")``).
    """
    path = str(path)
    unknown = sorted(set(options) - set(_KNOWN_OPTIONS))
    if unknown:
        raise TypeError(
            f"unknown load_design option(s): {', '.join(unknown)}")
    _fault_check("io.parse_error")
    name = detect_format(path) if format == "auto" else format
    spec = _REGISTRY.get(name)
    if spec is None:
        known = ", ".join(sorted(_REGISTRY))
        raise FormatError(f"unknown design format {name!r} "
                          f"(registered: {known})", path=path)
    return spec.loader(path, options)


# --------------------------------------------------------------------------
# Built-in frontends.  Loaders import their implementation modules lazily
# so that ``import repro.io`` stays cheap and cycle-free.
# --------------------------------------------------------------------------

def _reject_netlist_options(path: str, options: dict, fmt: str) -> None:
    for key in ("sdc", "sdf", "sdf_corners"):
        if options.get(key):
            raise FormatError(
                f"option {key!r} needs a netlist frontend "
                f"(verilog/yosys); {fmt!r} files already carry their "
                f"delays", path=path)


def _load_tau(path: str, options: dict) -> ImportedDesign:
    _reject_netlist_options(path, options, "tau")
    from repro.io import tau_format
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    graph, constraints = tau_format.loads_design(text, path=path)
    return ImportedDesign(graph=graph, constraints=constraints,
                          format="tau", path=path)


def _load_json(path: str, options: dict) -> ImportedDesign:
    _reject_netlist_options(path, options, "json")
    from repro.io import json_format
    graph, constraints = json_format._load_design_json(path)
    return ImportedDesign(graph=graph, constraints=constraints,
                          format="json", path=path)


def _resolve_sdc(sdc, path: str):
    from repro.io.sdc import SdcConstraints, read_sdc
    if isinstance(sdc, SdcConstraints):
        return sdc
    if not os.path.exists(str(sdc)):
        raise FormatError("SDC file does not exist", path=str(sdc))
    return read_sdc(str(sdc))


def _resolve_sdf(sdf):
    from repro.io.sdf import SdfDelayFile, read_sdf
    if isinstance(sdf, SdfDelayFile):
        return sdf
    return read_sdf(str(sdf))


def _elaborate_netlist(module, sdc, library, options, *,
                       format: str, path: str, meta: dict
                       ) -> ImportedDesign:
    """Shared netlist back half: SDF annotation + corners + assembly."""
    from repro.io.flow import elaborate_design
    sdf = options.get("sdf")
    sdf_file = _resolve_sdf(sdf) if sdf is not None else None
    overrides: dict = {}
    if sdf_file is not None:
        from repro.io.sdf import build_overrides
        cell_overrides, net_delays = build_overrides(sdf_file, module,
                                                     library)
        overrides = {"cell_overrides": cell_overrides,
                     "net_delays": net_delays}
    design, constraints = elaborate_design(module, sdc, library,
                                           **overrides)
    corners = None
    if options.get("sdf_corners"):
        if sdf_file is None:
            raise FormatError("sdf_corners requires an SDF file",
                              path=path)
        from repro.io.sdf import TRIPLE_MEMBERS, extract_corners
        corners = extract_corners(
            sdf_file, module, sdc, library, design.graph,
            members=options.get("sdf_members") or TRIPLE_MEMBERS)
    return ImportedDesign(
        graph=design.graph, constraints=constraints, format=format,
        path=path, design=design, corners=corners,
        sdf_path=None if sdf_file is None else sdf_file.path, meta=meta)


def _default_library(options):
    if options.get("library") is not None:
        return options["library"]
    from repro.library.standard import default_library
    return default_library()


def _load_verilog(path: str, options: dict) -> ImportedDesign:
    from repro.io.verilog import read_verilog
    sdc = options.get("sdc")
    if sdc is None:
        raise FormatError(
            "Verilog input needs constraints: pass sdc=FILE "
            "(--sdc on the command line)", path=path)
    module = read_verilog(path)
    library = _default_library(options)
    return _elaborate_netlist(
        module, _resolve_sdc(sdc, path), library, options,
        format="verilog", path=path, meta={"module": module.name})


def _load_yosys(path: str, options: dict) -> ImportedDesign:
    from repro.io.sdc import SdcConstraints
    from repro.io.yosys_json import infer_clock_port, read_yosys_module
    module, meta = read_yosys_module(path)
    library = _default_library(options)
    sdc = options.get("sdc")
    if sdc is not None:
        sdc = _resolve_sdc(sdc, path)
    else:
        # Yosys JSON carries no constraints: synthesize a single-clock
        # SDC from the traced clock root.
        clock_port = infer_clock_port(module, library, path=path)
        sdc = SdcConstraints(clock_port=clock_port, clock_name="clk",
                             clock_period=options.get("clock_period")
                             or 1.0)
    imported = _elaborate_netlist(module, sdc, library, options,
                                  format="yosys", path=path, meta=meta)
    if options.get("sdc") is None and options.get("clock_period") is None:
        # Placeholder period: tighten to a realistically-critical one
        # now that the graph (and its annotated delays) exists.
        from repro.workloads.suite import suggest_clock_period
        imported.constraints = TimingConstraints(
            suggest_clock_period(imported.graph))
    imported.meta["clock_port"] = sdc.clock_port
    return imported


register_format(FormatSpec(
    name="tau",
    description="TAU-contest-style line-oriented text (.cppr)",
    extensions=(".cppr", ".tau"),
    loader=_load_tau,
))
register_format(FormatSpec(
    name="json",
    description="native design description as JSON",
    extensions=(".json",),
    loader=_load_json,
    sniff=lambda head: True if '"repro-cppr-design"' in head else
    (False if '"modules"' in head else None),
))
register_format(FormatSpec(
    name="verilog",
    description="structural Verilog netlist + SDC constraints",
    extensions=(".v",),
    loader=_load_verilog,
))
register_format(FormatSpec(
    name="yosys",
    description="Yosys write_json netlist (optional SDC/SDF)",
    extensions=(".json",),
    loader=_load_yosys,
    sniff=lambda head: True if '"modules"' in head else
    (False if '"repro-cppr-design"' in head else None),
))
