"""Graceful shutdown: the drain sequence finishes in-flight work,
refuses new work with structured 503s, and flushes the observability
plane (Chrome trace with serving-context meta)."""

from __future__ import annotations

import json

from repro.server import BackgroundServer

from tests.server.conftest import add_demo, make_service


class TestDrain:
    def test_drain_summary_and_post_drain_rejection(self):
        service = make_service()
        add_demo(service)
        status, _ = service.handle("POST", "/designs/demo/rank_paths",
                                   {"k": 1})
        assert status == 200
        summary = service.drain()
        assert summary["inflight_at_flush"] == 0
        status, payload = service.handle(
            "POST", "/designs/demo/rank_paths", {"k": 1})
        assert status == 503
        assert payload["error"]["code"] == "draining"
        status, payload = service.handle("GET", "/healthz")
        assert status == 200 and payload["status"] == "draining"

    def test_background_server_stop_reports_drain(self):
        service = make_service()
        add_demo(service)
        server = BackgroundServer(service).start()
        status, _ = server.request("POST", "/designs/demo/rank_paths",
                                   {"k": 1})
        assert status == 200
        summary = server.stop()
        assert summary is not None
        assert summary["inflight_at_flush"] == 0

    def test_trace_export_carries_serving_context(self, tmp_path):
        """Satellite: server-originated queries stamp Profile.meta with
        the design token / session id / corner count, so exported
        Chrome traces are distinguishable in Perfetto."""
        trace = tmp_path / "server-trace.json"
        service = make_service(trace_out=str(trace))
        add_demo(service)
        service.start_collecting()
        try:
            _, payload = service.handle("POST", "/sessions",
                                        {"design": "demo"})
            sid = payload["session"]["sid"]
            status, _ = service.handle(
                "POST", f"/sessions/{sid}/rank_paths", {"k": 2})
            assert status == 200
            # The per-request profile carries the serving context.
            meta = service.last_profile.meta
            assert meta["design"] == "demo"
            assert meta["session"] == sid
            assert meta["serving_corners"] == "0"
            status, _ = service.handle(
                "POST", "/designs/demo/rank_paths", {"k": 2})
            assert service.last_profile.meta["design"] == "demo"
        finally:
            summary = service.drain()
        assert summary["trace_out"] == str(trace)
        document = json.loads(trace.read_text())
        events = (document["traceEvents"]
                  if isinstance(document, dict) else document)
        assert events, "trace export is empty"
