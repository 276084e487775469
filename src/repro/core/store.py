"""On-disk content-addressed blob store for the durable control plane.

Every registry blob, once published, must survive a process restart —
ROADMAP item 3.  :class:`BlobStore` is the artifact half of that story
(the event half is :mod:`repro.core.wal`):

* **content addressing** — a blob is stored under the SHA-256 of its
  bytes, laid out git-style (``objects/<2-hex>/<62-hex>``) so one
  directory never collects millions of entries.  Storing the same bytes
  twice is a no-op, and the key doubles as the integrity check;
* **atomic writes** — a blob is written to a temp file under the store's
  own ``tmp/`` directory (same filesystem, so the final ``os.replace``
  is atomic), fsynced, then renamed into place and the parent directory
  fsynced.  A reader can therefore *never* observe a partial blob: the
  object path either does not exist or holds fully-written bytes;
* **verification on read** — :meth:`get` re-hashes what it read and
  raises :class:`~repro.exceptions.IntegrityError` on any mismatch, so
  bit rot or a tampered file can never be deserialized into a serving
  model;
* **crash hygiene** — temp files orphaned by a killed writer live only
  under ``tmp/`` and are swept on the next open; they are invisible to
  every read path in the meantime.

The store is thread-safe: concurrent writers of the *same* content race
benignly (both rename the same bytes into the same path), and readers
see only completed renames.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import re
import threading
from pathlib import Path
from typing import Dict, Iterator, List, Union

from repro.exceptions import ConfigurationError, IntegrityError, ResourceNotFoundError

#: A valid content address: 64 lowercase hex chars (SHA-256).
_KEY_RE = re.compile(r"^[0-9a-f]{64}$")


def content_key(data: bytes) -> str:
    """The content address of a byte string (SHA-256 hex digest)."""
    return hashlib.sha256(data).hexdigest()


class BlobStore:
    """A content-addressed, crash-safe directory of immutable blobs."""

    def __init__(self, root: Union[str, Path], fsync: bool = True) -> None:
        self.root = Path(root)
        self.fsync = bool(fsync)
        self._objects = self.root / "objects"
        self._tmp = self.root / "tmp"
        self._objects.mkdir(parents=True, exist_ok=True)
        self._tmp.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._names = itertools.count()  # guarded-by: _lock
        self.puts = 0  # guarded-by: _lock
        self.dedup_hits = 0  # guarded-by: _lock
        self.gets = 0  # guarded-by: _lock
        self.swept_tmp_files = self._sweep_tmp()

    # -- layout -------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        if not _KEY_RE.match(key):
            raise ConfigurationError(
                f"blob keys are 64-char lowercase hex SHA-256 digests, got {key!r}"
            )
        return self._objects / key[:2] / key[2:]

    def _sweep_tmp(self) -> int:
        """Delete temp files orphaned by a crashed writer (run at open)."""
        swept = 0
        for leftover in self._tmp.iterdir():
            if leftover.is_file():
                leftover.unlink()
                swept += 1
        return swept

    def _fsync_dir(self, directory: Path) -> None:
        """Persist a rename: fsync the directory that holds the new entry."""
        if not self.fsync:
            return
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    # -- writing ------------------------------------------------------------------
    def put(self, data: bytes) -> str:
        """Store a blob; returns its content address.

        Idempotent: identical bytes land on the identical path, so a
        second put (even from another thread or a previous process life)
        is a cheap existence check.  The tmpfile + ``os.replace`` dance
        guarantees no reader ever sees a half-written object.
        """
        key = content_key(data)
        path = self._path(key)
        if path.exists():
            with self._lock:
                self.dedup_hits += 1
            return key
        with self._lock:
            tmp = self._tmp / f"{os.getpid()}-{next(self._names)}.tmp"
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        path.parent.mkdir(parents=True, exist_ok=True)
        os.replace(tmp, path)
        self._fsync_dir(path.parent)
        with self._lock:
            self.puts += 1
        return key

    # -- reading ------------------------------------------------------------------
    def get(self, key: str) -> bytes:
        """Read one blob, verifying its bytes against the content address."""
        path = self._path(key)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise ResourceNotFoundError(
                f"blob {key[:12]}… is not in the store at {self.root}"
            ) from None
        actual = content_key(data)
        if actual != key:
            raise IntegrityError(
                f"blob {key[:12]}… failed verification: stored bytes hash to "
                f"{actual[:12]}… — the object file was corrupted or tampered with"
            )
        with self._lock:
            self.gets += 1
        return data

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def keys(self) -> List[str]:
        """Every stored content address (sorted)."""
        return sorted(self._iter_keys())

    def _iter_keys(self) -> Iterator[str]:
        for prefix_dir in self._objects.iterdir():
            if not prefix_dir.is_dir():
                continue
            for entry in prefix_dir.iterdir():
                key = prefix_dir.name + entry.name
                if _KEY_RE.match(key):
                    yield key

    def __len__(self) -> int:
        return sum(1 for _ in self._iter_keys())

    def nbytes(self) -> int:
        """Total payload bytes currently stored."""
        return sum(
            (self._objects / key[:2] / key[2:]).stat().st_size
            for key in self._iter_keys()
        )

    # -- maintenance --------------------------------------------------------------
    def verify_all(self) -> int:
        """Re-hash every stored blob; returns how many verified.

        Raises :class:`~repro.exceptions.IntegrityError` on the first
        blob whose bytes no longer match its address — used by the
        crash-recovery suite to assert no partial object is ever visible.
        """
        verified = 0
        for key in self._iter_keys():
            self.get(key)
            verified += 1
        return verified

    def describe(self) -> Dict[str, object]:
        """Status summary for operator tooling and ``/ei_status``."""
        keys = self.keys()
        with self._lock:
            return {
                "root": str(self.root),
                "blobs": len(keys),
                "bytes_stored": self.nbytes(),
                "puts": self.puts,
                "dedup_hits": self.dedup_hits,
                "gets": self.gets,
                "swept_tmp_files": self.swept_tmp_files,
            }
