"""Chaos over the shared-memory plane: attach faults, stale segments.

Two invariants.  First, the fallback ladder: when every process-worker
attach fails, the scheduler must degrade the query process -> thread
(the parent owns the segments, so the thread rung cannot be hurt by
attach faults) and the report must equal the clean scalar reference bit
for bit.  Second, hygiene: a chaos run may abandon pools and workers
mid-flight, but no segment may outlive the interpreter — ``/dev/shm``
must be clean after the process exits.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import warnings

import pytest

pytest.importorskip("numpy")

from tests.helpers import random_small  # noqa: E402

from repro import (CpprEngine, CpprOptions,  # noqa: E402
                   DegradedResultWarning, TimingAnalyzer)
from repro.core import shm  # noqa: E402
from repro.cppr.parallel import available_executors  # noqa: E402
from repro.faults import inject  # noqa: E402

pytestmark = [
    pytest.mark.skipif(not shm.available(),
                       reason="shared memory unavailable "
                              "(platform or ambient fault plan)"),
    pytest.mark.skipif("process" not in available_executors(),
                       reason="no fork support"),
]


def _fingerprint(paths):
    return [(round(p.slack, 9), tuple(p.pins)) for p in paths]


def _scalar_reference(seed: int, k: int = 6, mode: str = "setup"):
    graph, constraints = random_small(seed)
    clean = CpprEngine(TimingAnalyzer(graph, constraints),
                       CpprOptions(executor="serial", backend="scalar"))
    return _fingerprint(clean.top_paths(k, mode))


class TestLadderDegradation:
    def test_attach_storm_degrades_to_thread_with_exact_report(self):
        """Every worker attach fails -> thread rung -> clean answer."""
        want = _scalar_reference(31)
        graph, constraints = random_small(31)
        engine = CpprEngine(
            TimingAnalyzer(graph, constraints),
            CpprOptions(executor="process", workers=2, max_retries=1))
        # times=50 exhausts every process-rung attempt (tasks x
        # retries) but is bounded, so available() stays True and the
        # parent still publishes — the scenario is "workers cannot
        # map the segments", not "the platform has no shared memory".
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            with inject("shm.attach:times=50"):
                got = _fingerprint(engine.top_paths(6, "setup"))
        assert got == want
        events = {e["event"] for e in engine.last_degraded}
        assert "degrade.executor" in events

    def test_stale_storm_degrades_with_exact_report(self):
        want = _scalar_reference(32)
        graph, constraints = random_small(32)
        engine = CpprEngine(
            TimingAnalyzer(graph, constraints),
            CpprOptions(executor="process", workers=2, max_retries=1))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            with inject("shm.stale:times=50"):
                got = _fingerprint(engine.top_paths(6, "setup"))
        assert got == want

    def test_unbounded_arming_falls_back_to_inheritance(self):
        """``times=inf`` models a platform without shared memory: the
        plane reports unavailable, descriptors name no segment, and
        workers reading what they inherited at fork must produce the
        exact report with no degradation events at all."""
        want = _scalar_reference(33)
        graph, constraints = random_small(33)
        engine = CpprEngine(
            TimingAnalyzer(graph, constraints),
            CpprOptions(executor="process", workers=2))
        with inject("shm.attach:times=inf"):
            assert not shm.available()
            got = _fingerprint(engine.top_paths(6, "setup"))
        assert got == want
        assert engine.last_degraded == ()

    def test_thread_and_serial_rungs_are_immune(self):
        """The parent owns every segment, so bounded attach faults
        never reach the owner resolution path."""
        want = _scalar_reference(34)
        for executor in ("serial", "thread"):
            graph, constraints = random_small(34)
            engine = CpprEngine(
                TimingAnalyzer(graph, constraints),
                CpprOptions(executor=executor, workers=2))
            with inject("shm.attach:times=50", "shm.stale:times=50"):
                got = _fingerprint(engine.top_paths(6, "setup"))
            assert got == want, executor
            assert engine.last_degraded == ()


class TestSegmentHygiene:
    def test_dev_shm_clean_after_chaos_run(self, tmp_path):
        """A full chaos run leaves nothing behind in /dev/shm.

        Runs in a subprocess so the assertion covers the whole segment
        lifecycle including the atexit sweep — the parent then checks
        the kernel's view, not the (dead) registry's.
        """
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        script = textwrap.dedent("""
            import warnings
            from tests.helpers import random_small
            from repro import (CpprEngine, CpprOptions,
                               DegradedResultWarning, TimingAnalyzer)
            from repro.faults import inject

            graph, constraints = random_small(35)
            engine = CpprEngine(
                TimingAnalyzer(graph, constraints),
                CpprOptions(executor="process", workers=2,
                            max_retries=1))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradedResultWarning)
                with inject("shm.attach:times=4",
                            "pool.broken:times=1"):
                    engine.top_paths(6, "setup")
                engine.top_paths(6, "hold")
            import os
            print("PID", os.getpid())
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.getcwd(), "src"), os.getcwd(),
             env.get("PYTHONPATH", "")])
        env.pop("REPRO_FAULTS", None)
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, cwd=os.getcwd(),
            capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        pid = int(result.stdout.split("PID")[1].strip())
        leaked = [name for name in os.listdir("/dev/shm")
                  if name.startswith(f"repro-{pid}-")]
        assert not leaked, leaked
