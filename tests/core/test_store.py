"""The content-addressed blob store: layout, atomicity, verification."""

import os

import pytest

from repro.core.store import BlobStore, content_key
from repro.exceptions import ConfigurationError, IntegrityError, ResourceNotFoundError


def test_put_get_roundtrip_and_key_is_sha256(tmp_path):
    store = BlobStore(tmp_path / "store")
    data = b"model-bytes-\x00\xff" * 100
    key = store.put(data)
    assert key == content_key(data)
    assert len(key) == 64
    assert store.get(key) == data
    assert key in store
    assert store.keys() == [key]
    assert len(store) == 1
    assert store.nbytes() == len(data)


def test_layout_is_git_style_two_level(tmp_path):
    store = BlobStore(tmp_path / "store")
    key = store.put(b"payload")
    assert (tmp_path / "store" / "objects" / key[:2] / key[2:]).is_file()


def test_put_is_idempotent_and_counts_dedup(tmp_path):
    store = BlobStore(tmp_path / "store")
    first = store.put(b"same bytes")
    second = store.put(b"same bytes")
    assert first == second
    assert len(store) == 1
    assert store.puts == 1
    assert store.dedup_hits == 1


def test_get_missing_blob_raises_not_found(tmp_path):
    store = BlobStore(tmp_path / "store")
    with pytest.raises(ResourceNotFoundError):
        store.get("0" * 64)


def test_malformed_key_is_rejected(tmp_path):
    store = BlobStore(tmp_path / "store")
    for bad in ("short", "Z" * 64, "../../etc/passwd", content_key(b"x").upper()):
        with pytest.raises(ConfigurationError):
            store.get(bad)


def test_corrupted_blob_fails_verification_on_read(tmp_path):
    store = BlobStore(tmp_path / "store")
    key = store.put(b"original bytes")
    path = tmp_path / "store" / "objects" / key[:2] / key[2:]
    path.write_bytes(b"tampered bytes")
    with pytest.raises(IntegrityError):
        store.get(key)
    with pytest.raises(IntegrityError):
        store.verify_all()


def test_verify_all_counts_clean_blobs(tmp_path):
    store = BlobStore(tmp_path / "store")
    for i in range(5):
        store.put(f"blob-{i}".encode())
    assert store.verify_all() == 5


def test_orphaned_tmp_files_are_swept_and_invisible(tmp_path):
    root = tmp_path / "store"
    store = BlobStore(root)
    store.put(b"real blob")
    # simulate a writer killed mid-put: a half-written temp file remains
    (root / "tmp" / "12345-0.tmp").write_bytes(b"half-writ")
    reopened = BlobStore(root)
    assert reopened.swept_tmp_files == 1
    assert not list((root / "tmp").iterdir())
    assert len(reopened) == 1
    assert reopened.verify_all() == 1


def test_describe_reports_counters(tmp_path):
    store = BlobStore(tmp_path / "store")
    key = store.put(b"abc")
    store.put(b"abc")
    store.get(key)
    status = store.describe()
    assert status["blobs"] == 1
    assert status["bytes_stored"] == 3
    assert status["puts"] == 1
    assert status["dedup_hits"] == 1
    assert status["gets"] == 1


def test_store_without_fsync_still_roundtrips(tmp_path):
    store = BlobStore(tmp_path / "store", fsync=False)
    key = store.put(b"fast path")
    assert store.get(key) == b"fast path"
