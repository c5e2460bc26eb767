"""The pipeline's validity-keyed caches — LRU mechanics, stale
detection, and the ``pipeline.stale_artifact`` chaos contract."""

from __future__ import annotations

from repro import faults
from repro.obs import collecting
from repro.pipeline import STAGES, ArtifactCache, LruCache


class TestLruCache:
    def test_get_store_and_recency(self):
        lru = LruCache(capacity=2, counter_prefix="t")
        lru.store("a", 1)
        lru.store("b", 2)
        assert lru.get("a") == 1          # refreshes a's recency
        lru.store("c", 3)                 # evicts b, the LRU entry
        assert lru.get("b") is None
        assert lru.get("a") == 1
        assert lru.get("c") == 3
        assert lru.evictions == 1

    def test_counters_and_stats(self):
        lru = LruCache(capacity=1, counter_prefix="t")
        with collecting() as col:
            lru.get("missing")
            lru.store("x", 1)
            lru.get("x")
            lru.store("y", 2)
        assert col.profile().counter("t.miss") == 1
        assert col.profile().counter("t.hit") == 1
        assert col.profile().counter("t.evict") == 1
        assert lru.stats() == {"size": 1, "hits": 1, "misses": 1,
                               "evictions": 1}

    def test_peek_is_silent(self):
        lru = LruCache(capacity=2, counter_prefix="t")
        lru.store("a", 1)
        assert lru.peek("a") == 1
        assert lru.peek("zzz") is None
        assert lru.hits == 0 and lru.misses == 0

    def test_capacity_must_be_positive(self):
        import pytest
        with pytest.raises(ValueError):
            LruCache(capacity=0, counter_prefix="t")


class TestArtifactCache:
    def test_basis_match_serves(self):
        cache = ArtifactCache(capacity=4, counter_prefix="t")
        cache.store("k", (0, 0), "value")
        assert cache.get("k", (0, 0)) == "value"
        assert cache.stale_detected == 0

    def test_basis_mismatch_detected_and_dropped(self):
        cache = ArtifactCache(capacity=4, counter_prefix="t")
        cache.store("k", (0, 0), "value")
        with collecting() as col:
            assert cache.get("k", (0, 1)) is None
        assert cache.stale_detected == 1
        assert col.profile().counter("t.stale.detected") == 1
        # The entry is gone — a second lookup is a plain miss.
        assert cache.get("k", (0, 0)) is None
        assert cache.stale_detected == 1

    def test_restamp_revalidates(self):
        cache = ArtifactCache(capacity=4, counter_prefix="t")
        cache.store("k", (0, 0), "value")
        cache.restamp("k", (0, 1))
        assert cache.get("k", (0, 1)) == "value"
        cache.restamp("absent", (9, 9))   # no-op for unknown keys
        assert cache.get("absent", (9, 9)) is None


class TestStaleArtifactFault:
    """The chaos contract: a missed-invalidation fault at store time is
    *detected* at serve time — never silently served."""

    def test_store_poisons_and_get_detects(self):
        cache = ArtifactCache(capacity=4, counter_prefix="t")
        with faults.inject("pipeline.stale_artifact:times=1"):
            cache.store("k", (0, 0), "value")
        # The very basis the entry was stored under does not serve it.
        assert cache.get("k", (0, 0)) is None
        assert cache.stale_detected == 1

    def test_restamp_path_also_covered(self):
        cache = ArtifactCache(capacity=4, counter_prefix="t")
        cache.store("k", (0, 0), "value")
        with faults.inject("pipeline.stale_artifact:times=1"):
            cache.restamp("k", (1, 0))
        assert cache.get("k", (1, 0)) is None
        assert cache.stale_detected == 1

    def test_unfaulted_store_is_clean(self):
        cache = ArtifactCache(capacity=4, counter_prefix="t")
        cache.store("k", (0, 0), "value")
        assert cache.get("k", (0, 0)) == "value"


def test_stage_table_is_ordered_and_closed():
    """Every stage's inputs name earlier stages (dependency order)."""
    seen = set()
    for stage in STAGES:
        assert all(inp in seen for inp in stage.inputs), stage
        seen.add(stage.name)
    assert [s.name for s in STAGES] == [
        "structure", "values", "propagation", "families", "select"]
