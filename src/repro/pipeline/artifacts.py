"""Validity-keyed artifact caches for the staged pipeline.

Two containers, both LRU-bounded and both reporting their traffic
through :mod:`repro.obs` counters:

* :class:`LruCache` — a plain keyed LRU.  The engine's ``select``-stage
  memo (formerly a single-entry ``_topk_cache``) is one of these.
* :class:`ArtifactCache` — an LRU whose entries additionally record the
  *validity basis* (the stage's validity-key tuple, e.g.
  ``(tree_epoch, values_version)``) they were computed under.  A lookup
  presents the current basis; an entry recorded under any other basis is
  **detected as stale**, counted (``<prefix>.stale.detected``), dropped,
  and reported as a miss — never served.

The store path consults the ``pipeline.stale_artifact`` fault site
(:func:`repro.faults.triggered`): when an armed chaos plan fires, the
entry is stored with a *poisoned* basis, modelling a missed invalidation
hook.  The basis check above is what turns that corruption into a
recompute instead of a wrong answer — the property the chaos tests pin.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable

from repro import faults
from repro.obs import collector as _obs
from repro.obs import metrics as _metrics

__all__ = ["ArtifactCache", "LruCache"]

#: Basis wrapper marking an entry poisoned by ``pipeline.stale_artifact``.
_POISONED = "#poisoned"

#: Labeled view of cache traffic: one metric, one sample per
#: ``(cache, outcome)`` pair.  The flat ``<prefix>.hit``-style counters
#: below are kept as the stable legacy vocabulary; this is the form
#: metrics snapshots and dashboards consume.
_CACHE_LOOKUPS = _metrics.REGISTRY.counter(
    "cache.lookup", labels=("cache", "outcome"),
    help="Pipeline cache lookups by cache name and outcome "
         "(hit/miss/stale) plus evictions under outcome=evict")


class LruCache:
    """A small keyed LRU with hit/miss/eviction counters.

    ``counter_prefix`` names the obs counters (``<prefix>.hit``,
    ``<prefix>.miss``, ``<prefix>.evict``); the totals are also kept as
    attributes (:attr:`hits`, :attr:`misses`, :attr:`evictions`) so
    callers without an active collector can still assert on traffic.
    """

    def __init__(self, capacity: int, counter_prefix: str) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.counter_prefix = counter_prefix
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        # Bound label sets resolve the encoded sample names once here,
        # keeping the lookup hot path at one extra dict increment.
        self._m_hit = _CACHE_LOOKUPS.labels(cache=counter_prefix,
                                            outcome="hit")
        self._m_miss = _CACHE_LOOKUPS.labels(cache=counter_prefix,
                                             outcome="miss")
        self._m_evict = _CACHE_LOOKUPS.labels(cache=counter_prefix,
                                              outcome="evict")

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def keys(self) -> list:
        """Current keys, least recently used first."""
        return list(self._entries)

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The value under ``key`` (refreshing recency), else ``default``."""
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            _obs.add(f"{self.counter_prefix}.miss")
            self._m_miss.inc()
            return default
        self._entries.move_to_end(key)
        self.hits += 1
        _obs.add(f"{self.counter_prefix}.hit")
        self._m_hit.inc()
        return value

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Like :meth:`get` but silent: no counters, no recency update."""
        return self._entries.get(key, default)

    def store(self, key: Hashable, value: Any) -> None:
        """Insert/replace ``key``, evicting the LRU entry past capacity."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
            _obs.add(f"{self.counter_prefix}.evict")
            self._m_evict.inc()

    def drop(self, key: Hashable) -> None:
        self._entries.pop(key, None)

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> dict[str, int]:
        return {"size": len(self._entries), "hits": self.hits,
                "misses": self.misses, "evictions": self.evictions}


class ArtifactCache:
    """An LRU of stage artifacts, each stamped with its validity basis.

    Entries are stored as ``(basis, value)``; :meth:`get` takes the
    *current* basis and serves only exact matches.  A mismatch means the
    entry survived past an edit without being revalidated (the pipeline
    revalidates eagerly on every update, so in an unfaulted run this
    indicates the ``pipeline.stale_artifact`` corruption) — it is
    counted under ``<prefix>.stale.detected``, dropped, and reported as
    a miss.
    """

    def __init__(self, capacity: int, counter_prefix: str) -> None:
        self._lru = LruCache(capacity, counter_prefix)
        self.counter_prefix = counter_prefix
        self.stale_detected = 0
        self._m_stale = _CACHE_LOOKUPS.labels(cache=counter_prefix,
                                              outcome="stale")

    def __len__(self) -> int:
        return len(self._lru)

    @property
    def hits(self) -> int:
        return self._lru.hits

    @property
    def misses(self) -> int:
        return self._lru.misses

    @property
    def evictions(self) -> int:
        return self._lru.evictions

    def get(self, key: Hashable, basis: tuple) -> Any:
        """The artifact under ``key`` if recorded under ``basis``.

        Returns ``None`` on a miss or a detected-stale entry.
        """
        entry = self._lru.get(key)
        if entry is None:
            return None
        recorded, value = entry
        if recorded != basis:
            self.stale_detected += 1
            _obs.add(f"{self.counter_prefix}.stale.detected")
            self._m_stale.inc()
            self._lru.drop(key)
            return None
        return value

    def store(self, key: Hashable, basis: tuple, value: Any) -> None:
        """Record ``value`` under ``key`` with validity ``basis``.

        Consults the ``pipeline.stale_artifact`` fault site: a firing
        poisons the recorded basis, so the entry can never match a real
        lookup and must be detected at serve time.
        """
        if faults.triggered("pipeline.stale_artifact"):
            basis = (_POISONED, basis)
        self._lru.store(key, (basis, value))

    def restamp(self, key: Hashable, basis: tuple) -> None:
        """Revalidate ``key``'s entry under a new basis (if present).

        Also passes through the ``pipeline.stale_artifact`` site —
        revalidation is a store of the same value under a fresh basis,
        and a missed-invalidation fault can strike either path.
        """
        entry = self._lru.peek(key)
        if entry is None:
            return
        if faults.triggered("pipeline.stale_artifact"):
            basis = (_POISONED, basis)
        self._lru.store(key, (basis, entry[1]))

    def drop(self, key: Hashable) -> None:
        self._lru.drop(key)

    def entries(self) -> list[tuple[Hashable, tuple, Any]]:
        """A snapshot of ``(key, basis, value)`` rows (no recency change)."""
        return [(key, entry[0], entry[1])
                for key, entry in self._lru._entries.items()]

    def clear(self) -> None:
        self._lru.clear()

    def stats(self) -> dict[str, int]:
        stats = self._lru.stats()
        stats["stale_detected"] = self.stale_detected
        return stats
