"""Golden fixture: the mutable-return rule (the SelectionCache bug class)."""

import threading


class Cache:
    def __init__(self):
        self._lock = threading.Lock()
        self._entries = {}  # guarded-by: _lock
        self.stats = {"hits": 0}  # guarded-by: _lock

    def bad_all(self):
        with self._lock:
            return self._entries  # EXPECT[mutable-return]

    def bad_one(self, key):
        with self._lock:
            return self._entries[key]  # EXPECT[mutable-return]

    def bad_stats(self):
        return self.stats  # EXPECT[mutable-return]

    def good_copy(self):
        with self._lock:
            return dict(self._entries)

    def good_scalar(self):
        with self._lock:
            return len(self._entries)

    def suppressed_view(self):
        # lint: ignore[mutable-return] documented live view, callers must treat it read-only
        return self._entries


def peek_stats(cache):
    # not self: a guarded attribute leaks through any base expression
    return cache.stats  # EXPECT[mutable-return]
