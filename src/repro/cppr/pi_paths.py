"""Primary-input path candidates (paper Definition 6, Algorithm 4).

Paths launched from a primary input share no clock path with their capture
clock, so there is no pessimism to remove: candidates are ranked by the
plain pre-CPPR slack and their credit is zero.  The pass is the
self-loop family's single-tuple body
(:func:`~repro.cppr.selfloop_paths.single_tuple_paths`) seeded at the
primary inputs.
"""

from __future__ import annotations

from repro.cppr.selfloop_paths import single_tuple_paths
from repro.cppr.tuples import NO_NODE
from repro.cppr.types import PathFamily, TimingPath
from repro.obs import collector as _obs
from repro.sta.modes import AnalysisMode
from repro.sta.timing import TimingAnalyzer

__all__ = ["primary_input_paths", "primary_input_seed_map"]


def primary_input_paths(analyzer: TimingAnalyzer, k: int,
                        mode: AnalysisMode | str,
                        heap_capacity: int | None = None,
                        backend: str = "scalar",
                        batch=None) -> list[TimingPath]:
    """Top-``k`` primary-input path candidates, best slack first.

    ``batch`` optionally supplies the mode's already-propagated rows;
    the family then reads row ``D + 1`` instead of propagating (see
    :func:`~repro.cppr.selfloop_paths.self_loop_paths`).
    """
    with _obs.span("primary_input"):
        return single_tuple_paths(analyzer, k, mode, heap_capacity,
                                  backend, batch, PathFamily.PRIMARY_INPUT,
                                  primary_input_seed_map)


def primary_input_seed_map(graph, mode: AnalysisMode
                           ) -> dict[int, tuple[float, int]]:
    """Every primary input at its own arrival, with no ``from`` pin."""
    return {pi.pin: (pi.at_late if mode.is_setup else pi.at_early, NO_NODE)
            for pi in graph.primary_inputs}
