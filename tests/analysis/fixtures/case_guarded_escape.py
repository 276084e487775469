"""Golden fixture: guarded containers escaping a method by reference.

The literal ``return self._entries`` spelling is case_mutable_return.py;
these are the laundered forms — a local alias, or another method's
return value — which the same rule follows through the call graph.
"""

import threading


class EntryStore:
    def __init__(self):
        self._lock = threading.Lock()
        self._entries = {}  # guarded-by: _lock

    def _entries_ref(self):
        return self._entries  # EXPECT[mutable-return]

    def bad_alias_escape(self):
        with self._lock:
            entries = self._entries
        return entries  # EXPECT[mutable-return]

    def bad_call_escape(self):
        return self._entries_ref()  # EXPECT[mutable-return]

    def good_copy(self):
        with self._lock:
            return dict(self._entries)

    def good_alias_of_copy(self):
        with self._lock:
            entries = dict(self._entries)
        return entries

    def good_rebound_alias(self):
        entries = self._entries
        entries = {}
        return entries

    def good_copied_call(self):
        return dict(self._entries_ref())

    def suppressed_call_escape(self):
        # lint: ignore[mutable-return] frozen snapshot; the store is sealed before readers attach
        return self._entries_ref()

    def suppressed_ref(self):
        # lint: ignore[mutable-return] read-only consumer audited when the cache landed
        return self._entries
