"""The libei wire format: one encoder, byte for byte ``json.dumps``.

:func:`repro.serving.api.encode_body` splices each reading's cached JSON
text into ``/ei_data`` bodies instead of re-encoding its floats.  That
every route's body is ``json.dumps(body).encode()`` on the wire is a row
of the conformance table (``test_conformance.py``); these tests count
how often a payload is really encoded.
"""

from __future__ import annotations

import json
import sys
import threading
from types import SimpleNamespace

import pytest

from repro.core import OpenEI
from repro.data import CameraSensor, sensors
from repro.serving import LibEIDispatcher
from repro.serving.api import encode_body

FRAMES = 12
#: a series with no live sensor behind it: every read answers the same bytes
RECORDED = "recorded-cam"
REALTIME = f"/ei_data/realtime/{RECORDED}/"


def recorded_openei() -> OpenEI:
    openei = OpenEI(device_name="raspberry-pi-4")
    for reading in CameraSensor(sensor_id=RECORDED, seed=3).stream(FRAMES):
        openei.data_store.record(reading)
    return openei


def window(openei: OpenEI, first: int, last: int) -> str:
    stamps = [r.timestamp for r in openei.data_store.historical(RECORDED, 0.0)]
    return f"/ei_data/historical/{RECORDED}/?start={stamps[first]!r}&end={stamps[last]!r}"


@pytest.fixture
def encodes(monkeypatch):
    """One entry per payload encode: ``sensors.json`` is swapped for a counting stand-in."""
    calls = []

    def dumps(value):
        calls.append(1)
        return json.dumps(value)

    monkeypatch.setattr(sensors, "json", SimpleNamespace(dumps=dumps))
    return calls


def test_a_reading_served_again_is_encoded_twice_then_never(encodes):
    """A reading's text is kept from its second serve on, so it costs two encodes."""
    openei = recorded_openei()
    dispatcher = LibEIDispatcher(openei)
    first = encode_body(dispatcher.handle_path(REALTIME))
    for _ in range(4):
        assert encode_body(dispatcher.handle_path(REALTIME)) == first
    assert len(encodes) == 2  # the newest reading: first serve, second serve
    overlapping = [window(openei, 2, 6), window(openei, 4, 9)]
    for path in overlapping * 3:
        body = dispatcher.handle_path(path)
        assert encode_body(body) == json.dumps(body).encode("utf-8")
    assert len(encodes) == 2 + 2 * 8  # frames 2..9, each twice


def test_a_live_reading_served_once_keeps_no_text(encodes):
    """Fresh live frames are the traffic the kept text would not pay for."""
    openei = OpenEI(device_name="raspberry-pi-4")
    openei.data_store.register_sensor(CameraSensor(sensor_id="live-cam", seed=5))
    dispatcher = LibEIDispatcher(openei)
    for _ in range(6):
        body = dispatcher.handle_path("/ei_data/realtime/live-cam/")
        assert encode_body(body) == json.dumps(body).encode("utf-8")
    series = openei.data_store.historical("live-cam", 0.0)
    assert len(series) == len(encodes) == 6  # a fresh reading per call, encoded once
    assert all(r._payload_json is None for r in series)
    # a historical query serves them again: now each one keeps its text
    body = dispatcher.handle_path("/ei_data/historical/live-cam/?start=0")
    assert encode_body(body) == json.dumps(body).encode("utf-8")
    assert [r._payload_json for r in series] == [json.dumps(r.payload.tolist()) for r in series]
    assert len(encodes) == 12


def test_concurrent_readers_encode_each_reading_twice_up_to_a_benign_race(encodes):
    openei = recorded_openei()
    dispatcher = LibEIDispatcher(openei)
    paths = [REALTIME, f"/ei_data/historical/{RECORDED}/?start=0"]
    expected = {p: json.dumps(dispatcher.handle_path(p)).encode("utf-8") for p in paths}
    threads_n = 4  # more threads than this suite's 2-core CI hosts
    barrier = threading.Barrier(threads_n)
    wrong = []

    def reader() -> None:
        barrier.wait(timeout=5.0)
        for _ in range(5):
            for path in paths:
                if encode_body(dispatcher.handle_path(path)) != expected[path]:
                    wrong.append(path)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    # Two threads that find one reading uncached at the same moment both
    # encode it and store the same text: the cache allows that benign race
    # rather than take a lock on every read.  A thread's second ask for a
    # reading always stores its text, so each reading (served many times
    # here) is encoded at least twice and at most twice per thread, and
    # never again afterwards.
    assert 2 * FRAMES <= len(encodes) <= 2 * FRAMES * threads_n
    settled = len(encodes)
    for path in paths:
        encode_body(dispatcher.handle_path(path))
    assert len(encodes) == settled
