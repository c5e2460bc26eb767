"""The shared-memory plane: layouts, the registry, core publication.

Covers the ``repro.core.shm`` contract end to end — descriptor
round-trips, version-slot staleness detection, refcounted unlink with
the owner-pid guard — plus ``CoreArrays.share_values``.  Everything
here runs in one process; the cross-process behavior rides the fork
pool and is exercised by ``tests/cppr/test_shard.py`` and the chaos
suite.
"""

from __future__ import annotations

import gc
import os

import pytest

np = pytest.importorskip("numpy")

from tests.helpers import random_small  # noqa: E402

from repro.core import shm  # noqa: E402
from repro.core.arrays import get_core  # noqa: E402
from repro.exceptions import ShmAttachError, ShmStaleError  # noqa: E402
from repro.faults import inject  # noqa: E402

pytestmark = pytest.mark.skipif(
    not shm.available(),
    reason="shared memory unavailable (platform or ambient fault plan)")


def _segment_files() -> set[str]:
    prefix = f"repro-{os.getpid()}-"
    try:
        return {name for name in os.listdir("/dev/shm")
                if name.startswith(prefix)}
    except OSError:  # non-Linux: fall back to the registry's own books
        return set(shm.REGISTRY.segments())


class TestAvailability:
    def test_available_by_default(self):
        assert shm.available()

    def test_unbounded_attach_arming_disables_the_plane(self):
        with inject("shm.attach:times=inf"):
            assert not shm.available()
        assert shm.available()

    def test_bounded_attach_arming_keeps_the_plane_up(self):
        with inject("shm.attach:times=2"):
            assert shm.available()


class TestBufferLayout:
    def test_roundtrip_through_dict(self):
        with shm.SegmentRegistry() as registry:
            layout, _views = registry.publish(
                "values",
                {"a": np.arange(5, dtype=np.float64),
                 "b": np.ones((2, 3), dtype=np.int64)},
                version=3, meta={"num_levels": 2})
            clone = shm.BufferLayout.from_dict(layout.to_dict())
            assert clone == layout
            assert clone.meta_dict == {"num_levels": 2}
            assert clone.column("b").shape == (2, 3)

    def test_columns_are_aligned_and_inside_the_segment(self):
        with shm.SegmentRegistry() as registry:
            layout, _views = registry.publish(
                "values",
                {"a": np.arange(7, dtype=np.float64),
                 "b": np.arange(3, dtype=np.int64)})
            for col in layout.columns:
                assert col.offset % shm.ALIGNMENT == 0
                assert col.offset >= shm.HEADER_BYTES
            assert layout.nbytes <= registry.tracked_bytes()


class TestVersionSlot:
    def test_publish_stamps_the_header(self):
        with shm.SegmentRegistry() as registry:
            layout, _views = registry.publish(
                "values", {"a": np.zeros(4)}, version=7)
            views = registry.views(layout, expected_version=7)
            assert views["a"].tolist() == [0.0] * 4

    def test_stale_read_detected_not_served(self):
        with shm.SegmentRegistry() as registry:
            layout, _views = registry.publish(
                "values", {"a": np.zeros(4)}, version=0)
            slot = registry.version_slot(layout)
            slot[0] = 1
            with pytest.raises(ShmStaleError):
                registry.views(layout, expected_version=0)
            # The current version still serves.
            registry.views(layout, expected_version=1)

    def test_owner_writes_are_visible_through_views(self):
        with shm.SegmentRegistry() as registry:
            layout, owner = registry.publish(
                "values", {"a": np.zeros(4)})
            owner["a"][2] = 5.5
            assert registry.views(layout)["a"][2] == 5.5

    def test_views_are_read_only(self):
        with shm.SegmentRegistry() as registry:
            layout, _owner = registry.publish(
                "values", {"a": np.zeros(4)})
            views = registry.views(layout)
            with pytest.raises(ValueError):
                views["a"][0] = 1.0


class TestRegistryLifecycle:
    def test_release_unlinks_owned_segments(self):
        registry = shm.SegmentRegistry()
        layout, _views = registry.publish("values", {"a": np.zeros(8)})
        assert layout.segment in _segment_files()
        registry.release(layout.segment)
        assert layout.segment not in _segment_files()

    def test_refcount_defers_unlink(self):
        registry = shm.SegmentRegistry()
        layout, _views = registry.publish("values", {"a": np.zeros(8)})
        registry.retain(layout.segment)
        registry.release(layout.segment)
        assert layout.segment in _segment_files()
        registry.release(layout.segment)
        assert layout.segment not in _segment_files()

    def test_sweep_clears_everything(self):
        registry = shm.SegmentRegistry()
        for _ in range(3):
            registry.publish("batch", {"a": np.zeros(4)})
        assert len(registry.segments()) == 3
        registry.sweep()
        assert not registry.segments()
        assert registry.tracked_bytes() == 0

    def test_sweep_kind_is_selective(self):
        registry = shm.SegmentRegistry()
        keep, _ = registry.publish("values", {"a": np.zeros(4)})
        drop, _ = registry.publish("batch", {"b": np.zeros(4)})
        registry.sweep_kind("batch")
        assert keep.segment in registry.segments()
        assert drop.segment not in registry.segments()
        registry.sweep()

    def test_attach_unknown_segment_raises(self):
        registry = shm.SegmentRegistry()
        ghost = shm.BufferLayout(
            segment="repro-0-does-not-exist", nbytes=shm.HEADER_BYTES + 64,
            kind="values", version=0,
            columns=(shm.ColumnSpec("a", "float64", (4,),
                                    shm.HEADER_BYTES),))
        with pytest.raises(ShmAttachError):
            registry.views(ghost)

    def test_segment_bytes_gauge_tracks_the_registry(self):
        before = shm.REGISTRY.tracked_bytes("values")
        layout, _views = shm.REGISTRY.publish(
            "values", {"a": np.zeros(16)})
        assert shm.REGISTRY.tracked_bytes("values") > before
        shm.REGISTRY.release(layout.segment)
        assert shm.REGISTRY.tracked_bytes("values") == before


class TestCorePublication:
    def test_finalizers_unlink_on_collection(self):
        graph, _constraints = random_small(14)
        core = get_core(graph)
        segment = core.share_values().segment
        assert segment in _segment_files()
        del core
        graph._core_arrays = None
        gc.collect()
        assert segment not in _segment_files()

    def test_share_values_rebinds_buckets_to_the_segment(self):
        graph, _constraints = random_small(15)
        core = get_core(graph)
        core.share_values()
        views = shm.REGISTRY.views(core.values.shm_layout,
                                   expected_version=core.values.version)
        assert views["edge_early"].tolist() == \
            core.values.edge_early.tolist()
