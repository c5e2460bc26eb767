"""Tests for the level-parallel executors."""

from __future__ import annotations

import sys
import threading

import pytest

from repro import CpprEngine, CpprOptions, TimingAnalyzer
from repro.cppr import parallel
from repro.cppr.parallel import available_executors, run_tasks
from repro.exceptions import AnalysisError
from tests.helpers import assert_slacks_equal, demo_analyzer, random_small


def _square(x):
    return x * x


def _fail(x):
    raise RuntimeError(f"boom {x}")


class TestRunTasks:
    def test_serial_preserves_order(self):
        assert run_tasks(_square, [(i,) for i in range(10)]) == [
            i * i for i in range(10)]

    def test_thread_preserves_order(self):
        assert run_tasks(_square, [(i,) for i in range(10)],
                         executor="thread", workers=3) == [
            i * i for i in range(10)]

    @pytest.mark.skipif("process" not in available_executors(),
                        reason="no fork support")
    def test_process_preserves_order(self):
        assert run_tasks(_square, [(i,) for i in range(10)],
                         executor="process", workers=2) == [
            i * i for i in range(10)]

    @pytest.mark.skipif("process" not in available_executors(),
                        reason="no fork support")
    def test_process_empty_task_list(self):
        assert run_tasks(_square, [], executor="process") == []

    def test_unknown_executor_rejected(self):
        with pytest.raises(AnalysisError, match="unknown executor"):
            run_tasks(_square, [(1,)], executor="gpu")

    def test_serial_propagates_exceptions(self):
        with pytest.raises(RuntimeError, match="boom"):
            run_tasks(_fail, [(1,)])

    def test_available_executors_include_serial_and_thread(self):
        executors = available_executors()
        assert "serial" in executors and "thread" in executors


@pytest.mark.skipif("process" not in available_executors(),
                    reason="no fork support")
class TestSharedPoolIsolation:
    """The fork pool is shared module state; guard its two hazards."""

    def test_concurrent_process_runs_keep_their_results(self):
        # Two threads race run_tasks(executor="process") on the one
        # shared pool; each call must get back its own tasks' results.
        results: dict[str, list] = {}
        errors: list[BaseException] = []

        def launch(name: str, offset: int) -> None:
            try:
                results[name] = run_tasks(
                    _square, [(offset + i,) for i in range(6)],
                    executor="process", workers=2)
            except BaseException as exc:  # noqa: BLE001 - recorded
                errors.append(exc)

        threads = [threading.Thread(target=launch, args=("a", 0)),
                   threading.Thread(target=launch, args=("b", 100))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert results["a"] == [i * i for i in range(6)]
        assert results["b"] == [(100 + i) ** 2 for i in range(6)]

    def test_nesting_check_rejects_only_real_workers(self):
        # The nesting guard must key on "am I a fork worker", not on a
        # sibling call's pool being busy — that is not nesting.
        original = parallel._IN_FORK_WORKER
        parallel._IN_FORK_WORKER = True
        try:
            with pytest.raises(AnalysisError, match="nested"):
                run_tasks(_square, [(1,)], executor="process",
                          fallback=False)
        finally:
            parallel._IN_FORK_WORKER = original
        # Back in the parent, the same call must succeed.
        assert run_tasks(_square, [(2,)], executor="process") == [4]


def _fingerprint(paths):
    return [(p.slack, p.credit, tuple(p.pins)) for p in paths]


def _scalar_reference(seed: int):
    engine = CpprEngine(TimingAnalyzer(*random_small(seed)),
                        CpprOptions(backend="scalar"))
    return _fingerprint(engine.top_paths(10, "setup"))


@pytest.mark.skipif("process" not in available_executors(),
                    reason="no fork support")
class TestSharedPoolPolicy:
    """When the one process pool is reused, re-forked or retired."""

    def test_pool_is_reused_then_reforked_for_the_array_core(self):
        from repro.cppr import shard
        want = _scalar_reference(13)
        scalar = CpprEngine(TimingAnalyzer(*random_small(13)), CpprOptions(
            executor="process", workers=2, backend="scalar"))
        assert _fingerprint(scalar.top_paths(10, "setup")) == want
        pool = shard._POOL
        scalar.clear_cache()
        assert _fingerprint(scalar.top_paths(10, "setup")) == want
        assert pool is not None and shard._POOL is pool
        assert scalar.last_degraded == ()
        # The pool forked before the analyzer had an array core; the
        # array query must re-fork so workers have it.
        pytest.importorskip("numpy", exc_type=ImportError)
        array = scalar.with_options(backend="array")
        assert _fingerprint(array.top_paths(10, "setup")) == want
        assert array.last_degraded == ()

    def test_queries_without_shared_memory_retire_the_pool_in_turn(self):
        # Every array process query re-forks the pool and retires it on
        # close; queries from two threads must take turns.
        pytest.importorskip("numpy", exc_type=ImportError)
        from repro.cppr import shard
        seeds = (16, 17)
        want = {seed: _scalar_reference(seed) for seed in seeds}
        outcomes: list = []
        errors: list[BaseException] = []

        def run(seed: int) -> None:
            try:
                for _round in range(3):
                    engine = CpprEngine(
                        TimingAnalyzer(*random_small(seed)), CpprOptions(
                            executor="process", workers=2,
                            backend="array"))
                    got = _fingerprint(engine.top_paths(10, "setup"))
                    outcomes.append((got == want[seed],
                                     engine.last_degraded))
            except BaseException as exc:  # noqa: BLE001 - recorded
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(seed,))
                       for seed in seeds]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert outcomes == [(True, ())] * 6
        assert shard._POOL is None


class TestEagerOptionValidation:
    """Bad executor/worker settings fail at engine construction."""

    def test_unknown_executor_rejected_eagerly(self):
        with pytest.raises(AnalysisError) as exc:
            CpprEngine(demo_analyzer(), CpprOptions(executor="gpu"))
        message = str(exc.value)
        assert "unknown executor 'gpu'" in message
        for name in available_executors():
            assert name in message

    def test_zero_workers_rejected(self):
        with pytest.raises(AnalysisError, match="at least 1"):
            CpprEngine(demo_analyzer(), CpprOptions(workers=0))

    def test_negative_workers_rejected(self):
        with pytest.raises(AnalysisError, match="at least 1"):
            CpprEngine(demo_analyzer(), CpprOptions(workers=-4))

    def test_bool_workers_rejected(self):
        with pytest.raises(AnalysisError, match="positive int or None"):
            CpprEngine(demo_analyzer(), CpprOptions(workers=True))

    def test_non_int_workers_rejected(self):
        with pytest.raises(AnalysisError, match="positive int or None"):
            CpprEngine(demo_analyzer(), CpprOptions(workers=2.5))

    def test_with_options_validates(self):
        engine = CpprEngine(demo_analyzer())
        with pytest.raises(AnalysisError, match="unknown executor"):
            engine.with_options(executor="quantum")

    def test_valid_options_accepted(self):
        engine = CpprEngine(demo_analyzer(),
                            CpprOptions(executor="thread", workers=2))
        assert engine.options.workers == 2

    def test_oversubscribed_workers_clamped_to_cpus(self):
        import os
        cpus = os.cpu_count() or 1
        engine = CpprEngine(demo_analyzer(),
                            CpprOptions(executor="thread",
                                        workers=cpus + 99))
        assert engine.options.workers == cpus + 99  # the request
        assert engine.resolved_workers == cpus      # the clamp

    def test_none_workers_resolve_to_cpu_count(self):
        import os
        engine = CpprEngine(demo_analyzer())
        assert engine.resolved_workers == (os.cpu_count() or 1)

    def test_clamp_is_visible_in_the_profile_header(self):
        import os
        cpus = os.cpu_count() or 1
        engine = CpprEngine(demo_analyzer(),
                            CpprOptions(executor="thread",
                                        workers=cpus + 99))
        _paths, profile = engine.profiled_top_paths(3, "setup")
        assert profile.meta["workers"] == f"{cpus + 99}->{cpus}"
        assert profile.meta["executor"] == "thread"
        from repro.obs.render import format_profile
        assert f"workers: {cpus + 99}->{cpus}" in format_profile(profile)


class TestEngineParallelEquivalence:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_executors_match_serial(self, executor):
        if executor not in available_executors():
            pytest.skip("executor unavailable on this platform")
        for seed in (0, 7, 23):
            graph, constraints = random_small(seed)
            analyzer = TimingAnalyzer(graph, constraints)
            serial = CpprEngine(analyzer).top_slacks(15, "setup")
            parallel = CpprEngine(analyzer, CpprOptions(
                executor=executor, workers=3)).top_slacks(15, "setup")
            assert_slacks_equal(serial, parallel)

    @pytest.mark.skipif("process" not in available_executors(),
                        reason="no fork support")
    def test_process_executor_hold_mode(self):
        graph, constraints = random_small(11)
        analyzer = TimingAnalyzer(graph, constraints)
        serial = CpprEngine(analyzer).top_slacks(10, "hold")
        parallel = CpprEngine(analyzer, CpprOptions(
            executor="process", workers=2)).top_slacks(10, "hold")
        assert_slacks_equal(serial, parallel)

    def test_worker_count_one_works(self):
        graph, constraints = random_small(5)
        analyzer = TimingAnalyzer(graph, constraints)
        serial = CpprEngine(analyzer).top_slacks(5, "setup")
        single = CpprEngine(analyzer, CpprOptions(
            executor="thread", workers=1)).top_slacks(5, "setup")
        assert_slacks_equal(serial, single)
