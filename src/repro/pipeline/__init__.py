"""The staged analysis pipeline behind incremental (ECO) re-analysis.

The CPPR stack is organized as five named stages, each with declared
inputs and a *validity key* — the tuple of state versions its outputs
depend on.  A cached artifact is served only while its recorded key
matches the current one; any edit bumps the relevant version, so a stale
artifact can be *detected* (and recomputed) rather than silently served:

========== ========================== ===============================
stage      inputs                     validity key
========== ========================== ===============================
structure  graph topology             (topology identity) — immutable
values     structure + edge delays    ``values_version``
propagation values + clock-tree seeds ``(tree_epoch, values_version)``
families   propagation + grouping + k ``basis + (mode, k, capacity)``
select     families + k               ``basis + (mode, k)``
========== ========================== ===============================

* **structure** — the immutable :class:`~repro.core.arrays.CoreStructure`
  (levelized edge CSR, fanin CSR, bucket geometry) plus everything else
  keyed by topology alone: ``topo_order``, binary-lifting up-tables,
  grouping matrices, batched pad geometry.  Shared across edits.
* **values** — the mutable :class:`~repro.core.arrays.CoreValues` delay
  columns, rewritten in place by a delay edit (``values_version`` bumps).
* **propagation** — per-mode arrival state: the dual tuples of every
  clock-tree level plus the single-tuple self-loop / primary-input
  states, with their deviation-cost columns.  A delay edit re-relaxes
  only the edit's fanout cone (falling back to full sweeps when the
  dirty fraction is large); a clock edit re-seeds the affected
  flip-flops' cones and bumps ``tree_epoch``.
* **families** — each candidate pass's top-``k`` list, cached per
  ``(family, mode, k, heap_capacity)`` in an :class:`ArtifactCache`.
  After an edit a family is re-served only when that is *provably*
  bit-identical to re-running it (see :mod:`repro.pipeline.bounds`);
  otherwise it re-runs on the maintained propagation state.
* **select** — Algorithm 6 over the family candidates.  The engine
  memoizes its answers in a small keyed :class:`LruCache`; a session
  keeps them in an :class:`ArtifactCache`, and a clock-free update that
  keeps every family an answer merged restamps that answer
  (``docs/PROOFS.md`` L8).

:class:`~repro.pipeline.session.CpprSession` (via
:meth:`repro.cppr.engine.CpprEngine.session`) drives the stages; see
``docs/INCREMENTAL.md`` for the ECO walkthrough and
``docs/ARCHITECTURE.md`` for the stage diagram and dirty-cone rules.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pipeline.artifacts import ArtifactCache, LruCache
from repro.pipeline.session import CpprSession

__all__ = ["STAGES", "ArtifactCache", "CpprSession", "LruCache",
           "StageSpec"]


@dataclass(frozen=True, slots=True)
class StageSpec:
    """One pipeline stage: its name, inputs, and validity-key fields.

    ``key_fields`` name the session attributes whose values make up the
    stage's validity key; artifacts recorded under one key are invalid
    the moment any named field changes.
    """

    name: str
    inputs: tuple[str, ...]
    key_fields: tuple[str, ...]


#: The pipeline's stages, in dependency order.
STAGES: tuple[StageSpec, ...] = (
    StageSpec("structure", (), ()),
    StageSpec("values", ("structure",), ("values_version",)),
    StageSpec("propagation", ("values",),
              ("tree_epoch", "values_version")),
    StageSpec("families", ("propagation",),
              ("tree_epoch", "values_version")),
    StageSpec("select", ("families",),
              ("tree_epoch", "values_version")),
)
