"""The numpy gate: backend resolution with and without numpy."""

from __future__ import annotations

import pytest

import repro.core as core
from repro.cppr.engine import CpprEngine, CpprOptions
from repro.exceptions import AnalysisError
from tests.helpers import demo_analyzer


class TestResolveBackend:
    def test_scalar_always_available(self):
        assert core.resolve_backend("scalar") == "scalar"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            core.resolve_backend("vector")

    def test_auto_with_numpy(self, monkeypatch):
        monkeypatch.setattr(core, "HAVE_NUMPY", True)
        assert core.resolve_backend("auto") == "array"

    def test_auto_without_numpy_falls_back(self, monkeypatch):
        monkeypatch.setattr(core, "HAVE_NUMPY", False)
        assert core.resolve_backend("auto") == "scalar"

    def test_explicit_array_without_numpy_raises(self, monkeypatch):
        monkeypatch.setattr(core, "HAVE_NUMPY", False)
        with pytest.raises(ImportError, match=r"repro\[fast\]"):
            core.resolve_backend("array")

    def test_scalar_without_numpy_ok(self, monkeypatch):
        monkeypatch.setattr(core, "HAVE_NUMPY", False)
        assert core.resolve_backend("scalar") == "scalar"


class TestEngineValidation:
    def test_default_backend_resolves_concretely(self):
        engine = CpprEngine(demo_analyzer())
        assert engine.options.backend == "auto"
        assert engine.backend in ("scalar", "array")
        expected = "array" if core.HAVE_NUMPY else "scalar"
        assert engine.backend == expected

    def test_bad_backend_rejected_at_construction(self):
        with pytest.raises(AnalysisError, match="unknown backend"):
            CpprEngine(demo_analyzer(), CpprOptions(backend="vector"))

    def test_array_without_numpy_raises_at_construction(self, monkeypatch):
        monkeypatch.setattr(core, "HAVE_NUMPY", False)
        with pytest.raises(ImportError, match="numpy"):
            CpprEngine(demo_analyzer(), CpprOptions(backend="array"))

    def test_auto_without_numpy_degrades(self, monkeypatch):
        monkeypatch.setattr(core, "HAVE_NUMPY", False)
        engine = CpprEngine(demo_analyzer())
        assert engine.backend == "scalar"

    def test_with_options_revalidates(self):
        engine = CpprEngine(demo_analyzer())
        scalar = engine.with_options(backend="scalar")
        assert scalar.backend == "scalar"
        with pytest.raises(AnalysisError):
            engine.with_options(backend="nope")

    def test_batching_follows_the_resolved_backend(self):
        # The array backend always runs the batched sweep; the scalar
        # reference never does.
        for backend in ("auto", "scalar"):
            engine = CpprEngine(demo_analyzer(),
                                CpprOptions(backend=backend))
            _paths, profile = engine.profiled_top_paths(4, "setup")
            assert profile.counter("batched.builds") == int(
                engine.backend == "array")

    def test_auto_without_numpy_degrades_to_unbatched(self, monkeypatch):
        monkeypatch.setattr(core, "HAVE_NUMPY", False)
        engine = CpprEngine(demo_analyzer())
        assert engine.backend == "scalar"
        _paths, profile = engine.profiled_top_paths(4, "setup")
        assert profile.counter("batched.builds") == 0
