"""The measured process of one perfbench run.

Started by ``run.py`` in a fresh interpreter with the generated inputs
already on disk.  It does one workload's set-up, a fixed number of ops
in a closed loop with one caller, and writes what it measured to
``--out``; reference checks happen later in another process
(``check.py``).  The program runs with its defaults: serial executor,
no ``repro.obs`` collector.

``--mode setup`` measures the set-up alone, ``--mode run`` the set-up
and the loop, and ``--mode trace`` runs the traced variant: spans from
this file around each call into a layer's public functions, per-layer
self time, and the composed layer calls checked bit for bit against
the engine.
"""

from __future__ import annotations

import argparse
import gc
import http.client
import json
import resource
import signal
import socket
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from common import (CALIBRATION_LOOPS, K_ECO, K_MCMM, LAYERS, MODES, ROOT,
                    digest, read_json, report_rows, subprocess_env,
                    write_json)

clock = time.perf_counter


# ----------------------------------------------------------------------
# Tracing: spans recorded here, around calls into the program
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans ``[name, start, end, parent, op]``.

    ``parent`` indexes the enclosing span (``None`` at top level) and
    ``op`` is the op id (``None`` during set-up).  A disabled tracer
    records nothing, so the same code runs traced and untraced.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: int | None = None

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, clock(), None, parent, self.op])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = clock()

    def seconds(self, name: str, op=None) -> float:
        return sum((end - start for n, start, end, _p, o in self.spans
                    if n == name and o == op), 0.0)

    def self_times(self) -> list[tuple[str, float, int | None]]:
        """``(name, self seconds, op)`` of every span."""
        covered = [0.0] * len(self.spans)
        for _n, start, end, parent, _o in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [(n, (end - start) - covered[i], o)
                for i, (n, start, end, _p, o) in enumerate(self.spans)]


NO_TRACE = Tracer(enabled=False)


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes now: the host's speed.

    The loop touches one small dict and runs with the collector off,
    so what the program leaves in memory does not change its time.
    """
    gc.disable()
    try:
        start = clock()
        total, table = 0, {}
        for i in range(CALIBRATION_LOOPS):
            total += i * i
            table[i & 511] = table.get(i & 511, 0) + i
        return clock() - start
    finally:
        gc.enable()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rows_by_mode(pair) -> dict:
    return {mode: report_rows(paths) for mode, paths in zip(MODES, pair)}


# ----------------------------------------------------------------------
# mcmm: SDF min/typ/max corners from a Yosys netlist
# ----------------------------------------------------------------------
class Mcmm:
    def __init__(self, inputs: Path, tr: Tracer) -> None:
        import repro
        from repro import CpprEngine, CpprOptions, TimingAnalyzer

        netlist, sdf = inputs / "mcmm.json", inputs / "mcmm.sdf"
        start = clock()
        with tr.span("io.load"):
            imported = repro.load_design(netlist, sdf=sdf,
                                         sdf_corners=True)
        with tr.span("sta.analyzer"):
            self.analyzer = TimingAnalyzer(imported.graph,
                                           imported.constraints)
            if tr.enabled:
                self.analyzer.arrivals
        if tr.enabled:
            self._attribute(imported, netlist, sdf, tr)
        with tr.span("cppr.first_report"):
            self.engine = CpprEngine(
                self.analyzer, CpprOptions(corners=imported.corners))
            self.first = [self.engine.top_paths_by_corner(K_MCMM, mode)
                          for mode in MODES]
        self.setup_s = clock() - start

    def _attribute(self, imported, netlist: Path, sdf: Path,
                   tr: Tracer) -> None:
        """Time the parts of ``load_design`` and of the engine's corner
        set-up one call at a time.

        ``load_design`` and ``CpprEngine`` already did this work, so
        each span is what that part costs on its own, not a split of
        ``io.load``.  The corners extracted here must equal the ones
        ``load_design`` built, and the realized analyzers feed the
        composed op.
        """
        from repro.core.arrays import get_core
        from repro.io.sdc import SdcConstraints
        from repro.io.sdf import extract_corners, read_sdf
        from repro.io.yosys_json import read_yosys_module
        from repro.library.standard import default_library

        with tr.span("io.parse_netlist"):
            module, _meta = read_yosys_module(netlist)
        with tr.span("io.parse_sdf"):
            sdf_file = read_sdf(sdf)
        # The single-clock SDC the yosys frontend synthesizes.
        sdc = SdcConstraints(clock_port=imported.meta["clock_port"],
                             clock_name="clk", clock_period=1.0)
        with tr.span("io.sdf_corners"):
            corners = extract_corners(sdf_file, module, sdc,
                                      default_library(), imported.graph)
        self.corners_match = (
            [(c.name, c.delays, c.clock) for c in corners]
            == [(c.name, c.delays, c.clock) for c in imported.corners])
        with tr.span("core.build"):
            get_core(imported.graph)
        with tr.span("corners.realize"):
            self.realized = imported.corners.realize(self.analyzer,
                                                     "array")

    def op(self, index: int, tr: Tracer = NO_TRACE):
        engine = self.engine
        start = clock()
        engine.clear_cache()
        setup = engine.top_paths_by_corner(K_MCMM, "setup")
        mid = clock()
        hold = engine.top_paths_by_corner(K_MCMM, "hold")
        end = clock()
        return end - start, [mid - start, end - mid], (setup, hold)

    def composed(self, tr: Tracer, counts: dict):
        from repro.core.batched import propagate_dual_batched_corners
        names = list(self.realized)
        analyzers = [self.realized[name] for name in names]
        out = []
        for mode in MODES:
            with tr.span("core.propagate"):
                batches = propagate_dual_batched_corners(
                    [a.graph for a in analyzers], mode)
            with tr.span("cppr.families"):
                candidates = [families(a, mode, K_MCMM, b)
                              for a, b in zip(analyzers, batches)]
            with tr.span("cppr.select"):
                out.append({name: select(a, c, K_MCMM) for name, a, c
                            in zip(names, analyzers, candidates)})
            counts["cppr.paths_reported"] += sum(map(len, candidates))
            counts["cppr.paths_selected"] += sum(
                map(len, out[-1].values()))
        return out

    def outputs(self, pair) -> dict:
        return {mode: {name: report_rows(paths)
                       for name, paths in by_corner.items()}
                for mode, by_corner in zip(MODES, pair)}


def families(analyzer, mode: str, k: int, batch) -> list:
    """Every candidate family of one mode, in the engine's task order."""
    from repro.cppr.level_paths import paths_at_level
    from repro.cppr.pi_paths import primary_input_paths
    from repro.cppr.selfloop_paths import self_loop_paths

    candidates = []
    for level in range(analyzer.clock_tree.num_levels):
        candidates.extend(paths_at_level(analyzer, level, k, mode, None,
                                         "array", batch))
    candidates.extend(self_loop_paths(analyzer, k, mode, None, "array"))
    candidates.extend(primary_input_paths(analyzer, k, mode, None,
                                          "array"))
    return candidates


def select(analyzer, candidates: list, k: int) -> list:
    from repro.cppr.select import select_top_paths
    return select_top_paths(analyzer, candidates, k)


# ----------------------------------------------------------------------
# eco: ECO rounds on an incremental session
# ----------------------------------------------------------------------
def open_leon2(inputs: Path, tr: Tracer):
    """``load_design`` and ``TimingAnalyzer`` of the leon2-shape design.

    Traced, the analyzer's forward pass (``.arrivals``, which the CPPR
    engine never reads) and the first array-core build are timed as
    their layers' calls.  Untraced neither is forced, so the set-up is
    what a user runs.
    """
    import repro
    from repro import TimingAnalyzer
    from repro.core.arrays import get_core

    with tr.span("io.load"):
        imported = repro.load_design(inputs / "leon2.cppr")
    with tr.span("sta.analyzer"):
        analyzer = TimingAnalyzer(imported.graph, imported.constraints)
        if tr.enabled:
            analyzer.arrivals
    if tr.enabled:
        with tr.span("core.build"):
            get_core(imported.graph)
    return analyzer


def load_rounds(path: Path) -> list:
    from repro import DelayUpdate
    return [[DelayUpdate(*edit) for edit in batch]
            for batch in read_json(path)["rounds"]]


class Eco:
    def __init__(self, inputs: Path, tr: Tracer, rounds: Path) -> None:
        from repro import CpprEngine

        self.rounds = load_rounds(rounds)
        start = clock()
        analyzer = open_leon2(inputs, tr)
        with tr.span("pipeline.session_open"):
            self.session = CpprEngine(analyzer).session()
            self.first = [self.session.top_paths(K_ECO, mode)
                          for mode in MODES]
        self.setup_s = clock() - start
        self.summaries: list[dict] = []

    def op(self, index: int, tr: Tracer = NO_TRACE):
        session = self.session
        batch = self.rounds[index]
        start = clock()
        with tr.span("pipeline.update"):
            summary = session.update(batch)
        mid = clock()
        with tr.span("pipeline.report"):
            setup = session.top_paths(K_ECO, "setup")
        mid2 = clock()
        with tr.span("pipeline.report"):
            hold = session.top_paths(K_ECO, "hold")
        end = clock()
        self.summaries.append(summary)
        return end - start, [mid2 - mid, end - mid2], (setup, hold)

    def outputs(self, pair) -> dict:
        return rows_by_mode(pair)


# ----------------------------------------------------------------------
# serve: the eco round over HTTP against `python -m repro serve`
# ----------------------------------------------------------------------
def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Serve:
    def __init__(self, inputs: Path, tr: Tracer, rounds: Path) -> None:
        self.rounds = [
            {"delays": [{"driver": d, "sink": s, "early": e, "late": l}
                        for d, s, e, l in batch]}
            for batch in read_json(rounds)["rounds"]]
        self.errors: dict[str, int] = {}
        port = free_port()
        start = clock()
        with tr.span("server.start"):
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--host",
                 "127.0.0.1", "--port", str(port)],
                cwd=ROOT, env=subprocess_env(),
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            try:
                self.conn = self._connect(port)
            except BaseException:
                self.close()
                raise
        try:
            with tr.span("server.design_load"):
                design = self.call("POST", "/designs", {
                    "path": str(inputs / "leon2.cppr")})
            with tr.span("server.session_open"):
                self.sid = self.call("POST", "/sessions", {
                    "design": design["token"]})["session"]["sid"]
            with tr.span("server.rank"):
                self.first = [self.rank(mode) for mode in MODES]
        except BaseException:
            self.close()
            raise
        self.setup_s = clock() - start

    def _connect(self, port: int) -> http.client.HTTPConnection:
        deadline = clock() + 60.0
        while clock() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    "repro serve exited early: "
                    + self.proc.stderr.read().decode(errors="replace"))
            conn = http.client.HTTPConnection("127.0.0.1", port,
                                              timeout=120)
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    return conn
            except OSError:
                pass
            conn.close()
            time.sleep(0.005)
        raise RuntimeError("repro serve did not answer within 60 s")

    def call(self, method: str, path: str, body: dict) -> dict:
        payload = json.dumps(body)
        self.conn.request(method, path, payload,
                          {"Content-Type": "application/json"})
        response = self.conn.getresponse()
        data = json.loads(response.read())
        if response.status != 200:
            code = (data.get("error") or {}).get("code", "unknown")
            self.errors[code] = self.errors.get(code, 0) + 1
            raise RuntimeError(f"{method} {path}: {response.status} "
                               f"{code}")
        return data

    def rank(self, mode: str) -> list:
        return self.call("POST", f"/sessions/{self.sid}/rank_paths",
                         {"k": K_ECO, "mode": mode})["paths"]

    def op(self, index: int, tr: Tracer = NO_TRACE):
        start = clock()
        with tr.span("server.update"):
            self.call("POST", f"/sessions/{self.sid}/update",
                      self.rounds[index])
        mid = clock()
        with tr.span("server.rank"):
            setup = self.rank("setup")
        mid2 = clock()
        with tr.span("server.rank"):
            hold = self.rank("hold")
        end = clock()
        return end - start, [mid2 - mid, end - mid2], (setup, hold)

    def outputs(self, pair) -> dict:
        return dict(zip(MODES, pair))

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def close(self) -> None:
        conn = getattr(self, "conn", None)
        if conn is not None:
            conn.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stderr.close()


def pages(analyzer, pair) -> dict:
    """In-process reports in the server's page format (page 0)."""
    from repro.io.reports import paths_to_dicts
    return {mode: paths_to_dicts(analyzer, paths)
            for mode, paths in zip(MODES, pair)}


def open_workload(name: str, inputs: Path, rounds: Path | None,
                  tr: Tracer = NO_TRACE):
    if name == "mcmm":
        return Mcmm(inputs, tr)
    if name == "eco":
        return Eco(inputs, tr, rounds)
    if name == "serve":
        return Serve(inputs, tr, rounds)
    raise ValueError(f"unknown workload {name!r}")


# ----------------------------------------------------------------------
# Untraced run
# ----------------------------------------------------------------------
def measure(work, ops: int) -> dict:
    """The closed loop: ``ops`` ops, one caller, nothing else timed.

    The calibration loop runs between ops, outside the timed region.
    Each answer is fingerprinted between ops, also outside it, and then
    dropped, so the benchmark holds no reports that would count toward
    the peak RSS.
    """
    op_s, read_s, cal_s, digests, errors = [], [], [], [], []
    gc.collect()
    loop = calibrate()
    for index in range(ops):
        before = loop
        try:
            seconds, reads, pair = work.op(index)
        except Exception as exc:  # a failed op is counted, not fatal
            errors.append(f"op {index}: {exc!r}")
            digests.append(None)
            loop = calibrate()
            continue
        loop = calibrate()
        op_s.append(seconds)
        read_s.append(reads)
        # The host's speed during the op: the mean of the loops just
        # before and just after it.
        cal_s.append(0.5 * (before + loop))
        digests.append(digest(work.outputs(pair)))
    rss = getattr(work, "peak_rss_mb", peak_rss_mb)()
    return {"op_s": op_s, "read_s": read_s, "cal_s": cal_s,
            "peak_rss_mb": rss, "errors": errors,
            "first": work.outputs(work.first), "digests": digests}


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def median(values: list) -> float:
    """The median, or 0.0 when a workload never called the layer."""
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    return (values[mid] if len(values) % 2
            else 0.5 * (values[mid - 1] + values[mid]))


def layer_metrics(tr: Tracer, traced_ops: list[int]) -> dict:
    """Per-op self time and call counts of each layer, plus the root's
    self time (time in an op outside every layer span)."""
    per_op = {op: {layer: 0.0 for layer in LAYERS + ("op",)}
              for op in traced_ops}
    calls = {op: {layer: 0 for layer in LAYERS} for op in traced_ops}
    for name, seconds, op in tr.self_times():
        if op not in per_op:
            continue
        layer = name.split(".")[0]
        per_op[op][layer] += seconds
        if layer in calls[op]:
            calls[op][layer] += 1
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = 1e3 * median(
            [per_op[op][layer] for op in traced_ops])
        out[f"{layer}.calls"] = median(
            [calls[op][layer] for op in traced_ops])
    out["trace.unattributed_ms"] = 1e3 * median(
        [per_op[op]["op"] for op in traced_ops])
    return out


SETUP_METRICS = (("io.load_s", "io.load"),
                 ("io.parse_netlist_s", "io.parse_netlist"),
                 ("io.parse_sdf_s", "io.parse_sdf"),
                 ("io.sdf_corners_s", "io.sdf_corners"),
                 ("sta.analyzer_s", "sta.analyzer"),
                 ("core.build_s", "core.build"),
                 ("corners.realize_s", "corners.realize"),
                 ("pipeline.session_open_s", "pipeline.session_open"),
                 ("server.design_load_s", "server.design_load"))


def traced(name: str, inputs: Path, rounds: Path | None,
           ops: int) -> dict:
    """Traced set-up, then ``ops`` ops alternating traced/untraced.

    Even ops run with spans, odd ops without; the difference of their
    medians is the tracing overhead.  On ``mcmm`` the op is composed
    from the layers' public calls and every op also runs the engine's
    own query, whose report must match bit for bit.  On ``serve``
    every op is replayed on an in-process session and the served pages
    must match the replay's.
    """
    tr = Tracer()
    work = open_workload(name, inputs, rounds, tr)
    try:
        return _traced_loop(name, work, tr, inputs, rounds, ops)
    finally:
        if isinstance(work, Serve):
            work.close()


def _traced_loop(name: str, work, tr: Tracer, inputs: Path,
                 rounds: Path | None, ops: int) -> dict:
    m = {key: tr.seconds(span) for key, span in SETUP_METRICS}
    counts = {"cppr.paths_reported": 0, "cppr.paths_selected": 0}
    composing = name == "mcmm"
    replay = Eco(inputs, NO_TRACE, rounds) if name == "serve" else None
    timed = {key: [] for key in ("traced", "untraced", "engine",
                                 "served", "replay")}
    mismatched, errors, digests = [], [], []
    gc.collect()
    for index in range(ops):
        is_traced = index % 2 == 0
        run = tr if is_traced else NO_TRACE
        tr.op = index if is_traced else None
        try:
            start = clock()
            with run.span("op"):
                if composing:
                    answer = work.composed(run, counts)
                else:
                    _s, _r, answer = work.op(index, run)
            seconds = clock() - start
            timed["traced" if is_traced else "untraced"].append(seconds)
            pair = answer
            if composing:
                engine_s, _r, pair = work.op(index)
                timed["engine"].append(engine_s)
                if work.outputs(answer) != work.outputs(pair):
                    mismatched.append(index)
            elif replay is not None:
                replay_s, _r, replayed = replay.op(index)
                timed["replay"].append(replay_s)
                if not is_traced:
                    timed["served"].append(seconds)
                if (work.outputs(pair)
                        != pages(replay.session.analyzer, replayed)):
                    mismatched.append(index)
            digests.append(digest(work.outputs(pair)))
        except Exception as exc:  # a failed op is counted, not fatal
            errors.append(f"op {index}: {exc!r}")
            digests.append(None)
    tr.op = None
    if name == "mcmm" and not work.corners_match:
        errors.append("extract_corners differs from load_design's corners")

    traced_ops = sorted({span[4] for span in tr.spans
                         if span[4] is not None})
    m.update(layer_metrics(tr, traced_ops))
    m["trace.op_ms"] = 1e3 * median(timed["traced"])
    m["trace.untraced_op_ms"] = 1e3 * median(timed["untraced"])
    m["trace.overhead_ms"] = m["trace.op_ms"] - m["trace.untraced_op_ms"]

    def per_op_ms(span_name: str, calls: int = 1) -> float:
        return 1e3 * median([tr.seconds(span_name, op)
                             for op in traced_ops]) / calls

    m["core.propagate_ms"] = per_op_ms("core.propagate")
    m["cppr.families_ms"] = per_op_ms("cppr.families")
    m["cppr.select_ms"] = per_op_ms("cppr.select")
    m["cppr.engine_overhead_ms"] = (
        1e3 * (median(timed["engine"]) - median(timed["untraced"]))
        if timed["engine"] else 0.0)
    composed_ops = max(1, len(timed["engine"]))
    m["cppr.paths_reported"] = counts["cppr.paths_reported"] / composed_ops
    m["cppr.paths_selected"] = counts["cppr.paths_selected"] / composed_ops
    m["cppr.select_yield"] = (counts["cppr.paths_selected"]
                              / max(1, counts["cppr.paths_reported"]))
    m["pipeline.update_ms"] = per_op_ms("pipeline.update")
    m["pipeline.report_ms"] = per_op_ms("pipeline.report", 2)
    summaries = getattr(work, "summaries", [])
    for key in ("dirty_pins", "families_kept", "families_dropped"):
        m[f"pipeline.{key}"] = median([s[key] for s in summaries])
    m["pipeline.full_rebuilds"] = sum(bool(s["full_rebuild"])
                                      for s in summaries)
    m["server.update_ms"] = per_op_ms("server.update")
    m["server.rank_ms"] = per_op_ms("server.rank", 2)
    m["server.overhead_ms"] = (
        1e3 * (median(timed["served"]) - median(timed["replay"]))
        if timed["replay"] else 0.0)
    m["server.errors"] = sum(getattr(work, "errors", {}).values())
    return {"metrics": m, "mismatched": mismatched, "errors": errors,
            "setup_s": work.setup_s, "digests": digests,
            "first": work.outputs(work.first), "spans": tr.spans,
            "server_errors": dict(getattr(work, "errors", {}))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--rounds", type=Path, default=None)
    parser.add_argument("--ops", type=int, default=0)
    parser.add_argument("--mode", choices=["setup", "run", "trace"],
                        required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.mode == "trace":
        result = traced(args.workload, args.inputs, args.rounds, args.ops)
    else:
        # The host's speed around the set-up: the median of three
        # calibration loops before it and three after.
        loops = [calibrate() for _ in range(3)]
        work = open_workload(args.workload, args.inputs, args.rounds)
        try:
            loops += [calibrate() for _ in range(3)]
            result = measure(work, args.ops) if args.mode == "run" else {}
        finally:
            if isinstance(work, Serve):
                work.close()
        result.update(setup_s=work.setup_s,
                      setup_cal_s=median(loops))
    write_json(args.out, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
