"""Immutable profile snapshots: span trees plus counter totals.

A :class:`Profile` is what a :class:`~repro.obs.collector.Collector`
produces when asked for a snapshot, what worker processes ship back to
the parent executor, what :attr:`CpprEngine.last_profile` holds, and
what the CLI and benchmark harness serialize.  It is a plain value
object with a stable dict form (``SCHEMA``) so profiles written by one
PR remain comparable in the next.

Span names follow ``family[detail]`` labels (``level[3]``,
``self_loop``); counter names are dotted (``heap.push``,
``deviation.edges_explored``).  The full vocabulary is documented in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

__all__ = ["Profile", "SpanNode", "SCHEMA"]

#: Schema tag embedded in every serialized profile.
SCHEMA = "repro.obs/profile@1"


@dataclass(frozen=True, slots=True)
class SpanNode:
    """One timed region: its label, wall seconds, and nested children."""

    name: str
    seconds: float
    children: tuple["SpanNode", ...] = ()
    #: Wall-clock offset (seconds) of the span's start relative to the
    #: collector's creation; ``0.0`` for hand-built or legacy profiles.
    start: float = 0.0

    @property
    def self_seconds(self) -> float:
        """Time spent in this span excluding its children."""
        return max(0.0, self.seconds - sum(c.seconds for c in self.children))

    def walk(self) -> Iterator[tuple[int, "SpanNode"]]:
        """Yield ``(depth, node)`` pairs depth-first, self first."""
        stack: list[tuple[int, SpanNode]] = [(0, self)]
        while stack:
            depth, node = stack.pop()
            yield depth, node
            for child in reversed(node.children):
                stack.append((depth + 1, child))

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "seconds": self.seconds,
                "start": self.start,
                "children": [c.to_dict() for c in self.children]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SpanNode":
        return cls(name=str(data["name"]),
                   seconds=float(data["seconds"]),
                   children=tuple(cls.from_dict(c)
                                  for c in data.get("children", ())),
                   start=float(data.get("start", 0.0)))


@dataclass(frozen=True, slots=True)
class Profile:
    """A snapshot of collected spans and counters.

    ``spans`` holds the root spans in a deterministic order (collection
    order for single-threaded runs; executor task order for parallel
    runs, see :func:`repro.cppr.parallel.run_tasks`).  ``counters`` maps
    dotted counter names to integer totals, sorted by name.
    """

    spans: tuple[SpanNode, ...] = ()
    counters: dict[str, int] = field(default_factory=dict)
    #: Fault/degradation events (dicts with an ``"event"`` key) recorded
    #: by the resilient scheduler and the engine's backend ladder during
    #: the profiled window; empty for clean runs.
    degraded: tuple[Mapping[str, Any], ...] = ()
    #: The collector's trace identifier, threading this snapshot to its
    #: exported trace (``None`` for hand-built or legacy profiles).
    trace_id: str | None = None
    #: Free-form header metadata (executor, resolved worker count,
    #: backend, corners...) stamped by the producer;
    #: rendered as header lines by ``format_profile``.  Values are
    #: short strings — never measurements, which belong in counters.
    meta: dict[str, str] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def counter(self, name: str, default: int = 0) -> int:
        """Total for one counter, ``default`` when never incremented."""
        return self.counters.get(name, default)

    def iter_spans(self) -> Iterator[SpanNode]:
        """Every span in the profile, depth-first across all roots."""
        for root in self.spans:
            for _depth, node in root.walk():
                yield node

    def span_seconds(self, name: str) -> float:
        """Summed wall seconds of every span labelled ``name``."""
        return sum(node.seconds for node in self.iter_spans()
                   if node.name == name)

    def total_seconds(self) -> float:
        """Summed wall seconds of the root spans."""
        return sum(root.seconds for root in self.spans)

    # ------------------------------------------------------------------
    # Combination
    # ------------------------------------------------------------------
    def merged(self, other: "Profile") -> "Profile":
        """A new profile: concatenated spans, summed counters."""
        counters = dict(self.counters)
        for name, amount in other.counters.items():
            counters[name] = counters.get(name, 0) + amount
        return Profile(spans=self.spans + other.spans,
                       counters=dict(sorted(counters.items())),
                       degraded=self.degraded + other.degraded,
                       trace_id=self.trace_id or other.trace_id,
                       meta={**self.meta, **other.meta})

    def with_degraded(self, events) -> "Profile":
        """This profile with ``events`` as its degradation record."""
        return Profile(spans=self.spans, counters=self.counters,
                       degraded=tuple(dict(e) for e in events),
                       trace_id=self.trace_id, meta=dict(self.meta))

    def with_meta(self, meta: Mapping[str, str]) -> "Profile":
        """This profile with ``meta`` merged into its header metadata."""
        return Profile(spans=self.spans, counters=self.counters,
                       degraded=self.degraded, trace_id=self.trace_id,
                       meta={**self.meta,
                             **{str(k): str(v) for k, v in meta.items()}})

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        data = {"schema": SCHEMA,
                "trace_id": self.trace_id,
                "spans": [root.to_dict() for root in self.spans],
                "counters": dict(self.counters),
                "degraded": [dict(e) for e in self.degraded]}
        if self.meta:
            data["meta"] = dict(sorted(self.meta.items()))
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Profile":
        counters = {str(k): int(v)
                    for k, v in data.get("counters", {}).items()}
        trace_id = data.get("trace_id")
        return cls(spans=tuple(SpanNode.from_dict(s)
                               for s in data.get("spans", ())),
                   counters=dict(sorted(counters.items())),
                   degraded=tuple(dict(e)
                                  for e in data.get("degraded", ())),
                   trace_id=None if trace_id is None else str(trace_id),
                   meta={str(k): str(v)
                         for k, v in data.get("meta", {}).items()})
