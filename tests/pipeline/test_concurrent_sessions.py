"""Many concurrent sessions over ONE shared immutable structure.

The server's core concurrency claim: a design loads once, and N
sessions fork copy-on-write values over the same engine — so N threads
interleaving ECO edits and queries must never observe each other.  The
oracle is per-thread: a session that applied edit history H answers
bit-for-bit what a solo session (fresh engine, same design) answers
after the same H, no matter how the other threads' edits and queries
interleaved around it."""

from __future__ import annotations

import threading

import pytest

from repro import (CpprEngine, CpprOptions, DelayUpdate, TimingAnalyzer,
                   faults)
from tests.helpers import random_small

try:
    import numpy  # noqa: F401
    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    HAVE_NUMPY = False

N_THREADS = 4
ROUNDS = 3
SEED = 91


def _key(path):
    return (path.slack, path.credit, tuple(path.pins), path.family,
            path.launch_ff, path.capture_ff, path.level)


def _edit_for(graph, thread_index: int, round_index: int) -> DelayUpdate:
    """A deterministic, per-thread-distinct delay edit on a real edge."""
    edges = []
    for source, adjacency in enumerate(graph.fanout):
        for sink, _early, _late in adjacency:
            edges.append((graph.pin_name(source), graph.pin_name(sink)))
    edges.sort()
    driver, sink = edges[(3 * thread_index + round_index) % len(edges)]
    bump = 0.05 * (thread_index + 1) + 0.01 * round_index
    return DelayUpdate(driver, sink, round(0.1 + bump, 3),
                       round(0.3 + 2 * bump, 3))


def _solo_reference(graph, constraints, options, history, k=4):
    session = CpprEngine(TimingAnalyzer(graph, constraints),
                         options).session()
    answers = []
    for edit in history:
        session.update(delays=[edit])
        answers.append([_key(p) for p in session.top_paths(k, "setup")])
    return answers


@pytest.mark.parametrize("options", [
    pytest.param(CpprOptions(backend="scalar"), id="scalar"),
    pytest.param(CpprOptions(backend="array"),
                 id="array-batched",
                 marks=pytest.mark.skipif(not HAVE_NUMPY,
                                          reason="numpy required")),
])
def test_interleaved_sessions_match_solo_history(options):
    graph, constraints = random_small(SEED)
    engine = CpprEngine(TimingAnalyzer(graph, constraints), options)
    barrier = threading.Barrier(N_THREADS)
    results: dict[int, list] = {}
    errors: list[BaseException] = []

    def worker(index: int) -> None:
        try:
            # Shadow any ambient fault plan: this test pins exactness,
            # chaos tolerance is covered elsewhere.
            with faults.inject():
                session = engine.session()
                answers = []
                for round_index in range(ROUNDS):
                    barrier.wait(timeout=60)  # force real interleaving
                    edit = _edit_for(graph, index, round_index)
                    session.update(delays=[edit])
                    answers.append([_key(p) for p in
                                    session.top_paths(4, "setup")])
                results[index] = answers
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=worker, args=(index,))
               for index in range(N_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    assert not errors, errors
    assert sorted(results) == list(range(N_THREADS))
    for index in range(N_THREADS):
        history = [_edit_for(graph, index, r) for r in range(ROUNDS)]
        want = _solo_reference(graph, constraints, options, history)
        assert results[index] == want, f"thread {index} diverged"


def test_sessions_do_not_observe_each_other():
    """A session opened before another's edits answers as if those
    edits never happened — copy-on-write isolation, same structure."""
    graph, constraints = random_small(SEED + 1)
    engine = CpprEngine(TimingAnalyzer(graph, constraints),
                        CpprOptions())
    quiet = engine.session()
    before = [_key(p) for p in quiet.top_paths(4, "setup")]
    noisy = engine.session()
    # Edit an edge ON the worst path so the noisy answer must change.
    worst = engine.top_paths(1, "setup")[0]
    driver, sink = (graph.pin_name(worst.pins[1]),
                    graph.pin_name(worst.pins[2]))
    noisy.update(delays=[DelayUpdate(driver, sink, 2.0, 5.0)])
    if HAVE_NUMPY:
        # Array sessions: one shared structure, private value columns.
        assert quiet._core.structure is noisy._core.structure
        assert not numpy.shares_memory(quiet._core.values.edge_late,
                                       noisy._core.values.edge_late)
    assert [_key(p) for p in noisy.top_paths(4, "setup")] != before
    assert [_key(p) for p in quiet.top_paths(4, "setup")] == before
    # And the engine itself still serves the unedited design.
    assert [_key(p) for p in engine.top_paths(4, "setup")] == before
