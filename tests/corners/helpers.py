"""Shared corner-construction helpers for the multi-corner suite."""

from __future__ import annotations

import random

from repro.corners import Corner, CornerSet
from repro.sta.incremental import DelayUpdate


def random_corner(graph, name: str, rng: random.Random,
                  num_delays: int = 8, num_clock: int = 2) -> Corner:
    """One random corner delta (delay + clock edits) for ``graph``."""
    edges = [(u, v, e, l) for u in range(graph.num_pins)
             for (v, e, l) in graph.fanout[u]]
    rng.shuffle(edges)
    delays = []
    for u, v, early, late in edges[:num_delays]:
        a = early * rng.uniform(0.6, 1.4)
        b = late * rng.uniform(0.6, 1.4)
        delays.append(DelayUpdate(u, v, min(a, b), max(a, b)))
    tree = graph.clock_tree
    clock = {}
    non_root = list(range(1, len(tree.names)))
    for i in rng.sample(non_root, min(num_clock, len(non_root))):
        a = tree.delays_early[i] * rng.uniform(0.8, 1.2)
        b = tree.delays_late[i] * rng.uniform(0.8, 1.2)
        clock[tree.names[i]] = (min(a, b), max(a, b))
    return Corner(name, delays, clock)


def random_corner_set(graph, seed: int, count: int = 3) -> CornerSet:
    """``typ`` (empty delta) plus ``count - 1`` random corners."""
    rng = random.Random(seed)
    corners = [Corner("typ")]
    for i in range(count - 1):
        corners.append(random_corner(graph, f"c{i}", rng))
    return CornerSet(corners)


def random_edits(graph, rng: random.Random, count: int,
                 spread: float = 0.5) -> list[DelayUpdate]:
    """Random in-place delay edits (the ECO-session vocabulary).

    Each delay is scaled by a factor within ``1 +- spread``: small
    spreads tend to keep cached families, large ones drop them.
    """
    edges = [(u, v, e, l) for u in range(graph.num_pins)
             for (v, e, l) in graph.fanout[u]]
    rng.shuffle(edges)
    edits = []
    for u, v, early, late in edges[:count]:
        a = early * rng.uniform(1 - spread, 1 + spread)
        b = late * rng.uniform(1 - spread, 1 + spread)
        edits.append(DelayUpdate(u, v, min(a, b), max(a, b)))
    return edits


def fingerprint(paths):
    """Bit-exact path identity: slack, pins, credit, family, level."""
    return [(path.slack, tuple(path.pins), path.credit,
             path.family.value, path.level) for path in paths]
