"""Selection caching for the fleet serving hot path.

Eq. (1) selection is cheap for one request but dominates the gateway's
hot path once thousands of identical requests arrive: every call
re-profiles every zoo model on the target device before ranking.  The
fleet layer therefore memoizes :class:`~repro.core.model_selector.SelectionResult`
objects behind a TTL + LRU cache keyed by everything that can change the
answer — the device, the zoo contents, the ALEM requirement and the
optimization target.  TTL bounds staleness (device load and profiles
drift over time); LRU bounds memory on small edges.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Hashable, Optional, Tuple

from repro.clock import SYSTEM_CLOCK, Clock
from repro.core.alem import ALEMRequirement, OptimizationTarget
from repro.exceptions import ConfigurationError


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    expirations: int = 0
    stores: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        """Total number of ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never queried)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        """JSON-serializable view (exposed through ``/ei_status`` on gateways)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "stores": self.stores,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        }


@dataclass
class _Entry:
    value: object
    expires_at: float = field(default=float("inf"))


class TTLLRUCache:
    """A bounded mapping with least-recently-used eviction and per-entry TTL.

    Thread-safe: one instance is shared across the gateway's handler
    threads (the fleet's selection cache and the capability router's
    score cache), so every mutation happens under a lock.

    Expiry reads ``clock.monotonic()`` (see :mod:`repro.clock`).
    """

    def __init__(
        self,
        max_size: int = 256,
        ttl_s: Optional[float] = 60.0,
        clock: Clock = SYSTEM_CLOCK,
    ) -> None:
        if max_size <= 0:
            raise ConfigurationError("cache max_size must be positive")
        if ttl_s is not None and ttl_s <= 0:
            raise ConfigurationError("cache ttl_s must be positive (or None for no TTL)")
        self.max_size = int(max_size)
        self.ttl_s = float(ttl_s) if ttl_s is not None else None
        self.clock = clock
        self.stats = CacheStats()  # guarded-by: _lock
        self._lock = threading.RLock()
        self._entries: "OrderedDict[Hashable, _Entry]" = OrderedDict()  # guarded-by: _lock

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        """Membership without touching LRU order or hit/miss statistics."""
        with self._lock:
            entry = self._entries.get(key)
            return entry is not None and self.clock.monotonic() < entry.expires_at

    def get(self, key: Hashable, default: object = None) -> object:
        """Return the cached value, counting a hit/miss and refreshing LRU order."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return default
            if self.clock.monotonic() >= entry.expires_at:
                del self._entries[key]
                self.stats.expirations += 1
                self.stats.misses += 1
                return default
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry.value

    def put(self, key: Hashable, value: object) -> None:
        """Insert or refresh an entry, evicting the least recently used on overflow."""
        with self._lock:
            now = self.clock.monotonic()
            expires_at = now + self.ttl_s if self.ttl_s is not None else float("inf")
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = _Entry(value=value, expires_at=expires_at)
            self.stats.stores += 1
            while len(self._entries) > self.max_size:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every entry (statistics are preserved)."""
        with self._lock:
            self._entries.clear()

    def remove_where(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose *key* matches; returns how many were removed.

        This is the targeted-invalidation primitive the adaptive control
        plane uses when measured ALEM drifts away from a cached selection:
        only the affected keys are dropped, the rest of the cache keeps
        serving hits.
        """
        with self._lock:
            doomed = [key for key in self._entries if predicate(key)]
            for key in doomed:
                del self._entries[key]
            self.stats.invalidations += len(doomed)
            return len(doomed)

    def describe(self) -> Dict[str, object]:
        """Status summary for ``/ei_status`` style reporting."""
        with self._lock:
            return {
                "size": len(self._entries),
                "max_size": self.max_size,
                "ttl_s": self.ttl_s,
                **self.stats.as_dict(),
            }


#: A fully-normalized selection cache key.
SelectionKey = Tuple[str, Optional[str], Hashable, ALEMRequirement, OptimizationTarget]


class SelectionCache:
    """TTL + LRU memoization of model-selection results.

    The key covers the complete input of
    :meth:`repro.core.openei.OpenEI.select_model`:

    * the device name (profiles differ per device),
    * the task filter,
    * a fingerprint of the evaluation state — the zoo's model names plus
      the evaluator's known accuracies — so registering/removing a model
      or injecting an accuracy changes the key and stale winners cannot
      be returned,
    * the :class:`~repro.core.alem.ALEMRequirement` (frozen → hashable),
    * the :class:`~repro.core.alem.OptimizationTarget`.

    One instance is safely shared by a whole fleet because the device
    name participates in the key.
    """

    def __init__(
        self,
        max_size: int = 1024,
        ttl_s: Optional[float] = 60.0,
        clock: Clock = SYSTEM_CLOCK,
    ) -> None:
        self._cache = TTLLRUCache(max_size=max_size, ttl_s=ttl_s, clock=clock)

    @staticmethod
    def make_key(
        device_name: str,
        task: Optional[str],
        fingerprint: Hashable,
        requirement: ALEMRequirement,
        target: OptimizationTarget,
    ) -> SelectionKey:
        """Build the canonical cache key for one selection call."""
        return (device_name, task, fingerprint, requirement, target)

    def get(self, key: SelectionKey):
        """Cached :class:`SelectionResult` for the key, or ``None`` on miss.

        The result is returned as a shallow copy with fresh ``feasible``/
        ``infeasible`` lists: callers re-rank and truncate those lists, and
        handing out the stored object by reference would let one caller
        corrupt every future hit for the same key.
        """
        result = self._cache.get(key)
        if result is None:
            return None
        return replace(
            result, feasible=list(result.feasible), infeasible=list(result.infeasible)
        )

    def put(self, key: SelectionKey, result) -> None:
        """Memoize a selection result (defensively copied, see :meth:`get`)."""
        self._cache.put(
            key,
            replace(result, feasible=list(result.feasible), infeasible=list(result.infeasible)),
        )

    def clear(self) -> None:
        """Invalidate everything (e.g. after re-profiling a device)."""
        self._cache.clear()

    def invalidate(self, device_name: Optional[str] = None, task: Optional[str] = None) -> int:
        """Drop cached selections for one device and/or task; returns the count.

        ``None`` leaves that key field unconstrained, so
        ``invalidate(device_name="pi")`` drops every task's selections for
        that device.  Calling it with neither argument drops nothing —
        use :meth:`clear` for a full flush.
        """
        if device_name is None and task is None:
            return 0

        def affected(key: Hashable) -> bool:
            cached_device, cached_task = key[0], key[1]
            if device_name is not None and cached_device != device_name:
                return False
            if task is not None and cached_task != task:
                return False
            return True

        return self._cache.remove_where(affected)

    def __len__(self) -> int:
        return len(self._cache)

    @property
    def stats(self) -> CacheStats:
        """Shared hit/miss statistics."""
        # lint: ignore[mutable-return] deliberate live view — callers read counters, snapshots go through as_dict()
        return self._cache.stats

    def describe(self) -> Dict[str, object]:
        """Status summary (surfaced by fleet ``/ei_status``)."""
        return self._cache.describe()
