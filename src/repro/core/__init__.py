"""repro.core — the flat array substrate shared by STA and every CPPR pass.

The paper's stated future work is a GPU port; the prerequisite — on any
hardware — is one compact array representation of the timing graph
instead of per-pin Python objects.  This package provides it:

* :class:`~repro.core.arrays.CoreArrays` — CSR fanout/fanin index
  arrays and per-source-level edge buckets, built once from a
  :class:`~repro.circuit.graph.TimingGraph` and cached on it
  (:func:`~repro.core.arrays.get_core`).
* :mod:`repro.core.propagate` — the ``backend="array"`` standalone
  single-tuple arrival propagation (level-wise scatter relaxation that
  also recovers argmin ``from``-pointers) and the precomputed
  deviation-cost columns.
* :mod:`repro.core.grouping` — vectorized ``f_{d+1}``/credit lookups
  for the per-level node grouping, including the one-shot ``(D, n_ff)``
  grouping matrix.
* :mod:`repro.core.batched` — the array backend's propagation: all
  ``D`` per-level forward passes plus the self-loop and primary-input
  passes as one sweep over ``(2(D + 2), n_pins)`` dual-tuple state,
  carrying group ids so the Table II dual-tuple semantics survive
  vectorization.

``numpy`` is an *optional* dependency (the ``fast`` extra).  This module
is importable without it; only the gate helpers live here so that
callers can decide between the scalar reference implementation and the
array backend without triggering the import:

* :data:`HAVE_NUMPY` — whether ``import numpy`` succeeds.
* :func:`resolve_backend` — maps the public ``"auto"|"scalar"|"array"``
  option to the concrete ``"scalar"``/``"array"`` implementation.
* :func:`require_numpy` — raises a clear, actionable error when the
  array backend is requested without numpy installed.

Tie-breaking contract (shared with the scalar backend): when two
arrival candidates at a pin have exactly equal times, the one with the
smaller ``from``-pin id wins; if those also tie, the smaller group id
wins.  Both backends implement this rule, so reported path sets are
identical across backends and executors.
"""

from __future__ import annotations

try:
    import numpy as _numpy  # noqa: F401
    HAVE_NUMPY = True
except Exception:  # pragma: no cover - exercised by the no-numpy CI job
    HAVE_NUMPY = False

__all__ = ["BACKENDS", "HAVE_NUMPY", "resolve_backend", "require_numpy",
           "safer_backend"]

#: The values accepted by ``CpprOptions.backend`` and the CLI flag.
BACKENDS = ("auto", "scalar", "array")


def require_numpy() -> None:
    """Raise ``ImportError`` with install guidance when numpy is absent."""
    if not HAVE_NUMPY:
        raise ImportError(
            "the array backend requires numpy, which is not installed; "
            "install it with `pip install repro[fast]` (or plain "
            "`pip install numpy`), or use backend='scalar'")


def resolve_backend(backend: str) -> str:
    """Map an ``"auto"|"scalar"|"array"`` choice to a concrete backend.

    ``"auto"`` resolves to ``"array"`` when numpy is importable and
    falls back to ``"scalar"`` otherwise — the automatic-degradation
    path for minimal installs.  An explicit ``"array"`` without numpy
    raises ``ImportError`` (callers that validate options eagerly, such
    as :class:`repro.cppr.engine.CpprEngine`, surface it at
    construction time).
    """
    if backend == "auto":
        return "array" if HAVE_NUMPY else "scalar"
    if backend == "scalar":
        return "scalar"
    if backend == "array":
        require_numpy()
        return "array"
    raise ValueError(
        f"unknown backend {backend!r}; expected one of {BACKENDS}")


def safer_backend(backend: str) -> str | None:
    """The next rung of the backend degradation ladder, or ``None``.

    ``"array" -> "scalar"`` (the dependency-free reference that computes
    bit-for-bit the same reports), ``"scalar" -> None`` (there is no
    safer substrate).  The engine walks this ladder when an array pass
    dies at runtime — a numpy import vanishing inside a worker, an
    allocation failure mid-sweep — so a query degrades to a
    slower-but-identical answer instead of failing.
    """
    if backend == "array":
        return "scalar"
    if backend == "scalar":
        return None
    raise ValueError(
        f"unknown concrete backend {backend!r}; expected 'scalar' or "
        f"'array'")
