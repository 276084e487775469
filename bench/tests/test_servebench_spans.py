"""Span self-time arithmetic on a hand-built tree, and the client/server join."""

import pytest

from servebench.spans import SpanRecorder, StageTable, graft, resolve_rids, self_times

MS = 1_000_000

# one request as the generator sees it ...
CLIENT = [(0, "client.get", "safety:7", None, 0, 10 * MS)]
# ... and as the server saw it, on its own clock and its own span ids
SERVER = [
    (0, "api.dispatch", "safety:7", None, 500 * MS, 504 * MS),
    (1, "api.parse", None, 0, 500 * MS, 501 * MS),
    (2, "fleet", None, 0, 501 * MS, 504 * MS),
    (3, "router.choose", None, 2, 501 * MS, 501 * MS + MS // 2),
    (4, "apps.safety", None, 2, 502 * MS, 504 * MS),
    (5, "trace.encode_est", "safety:7", None, 504 * MS, 505 * MS),
    # warm-up traffic: a request no client span carries
    (6, "api.dispatch", "safety:1000000000", None, 100 * MS, 103 * MS),
    # a timer tick: belongs to no request at all
    (7, "wal.append", None, None, 200 * MS, 202 * MS),
]


def test_self_time_is_duration_minus_direct_children():
    rows = graft(CLIENT, SERVER)
    own = self_times(rows)
    by_name = {name: own[sid] for sid, name, rid, *_ in rows if rid == "safety:7" or rid is None}
    assert by_name["client.get"] == 5 * MS          # 10 − dispatch 4 − encode 1
    assert by_name["api.parse"] == 1 * MS
    assert by_name["router.choose"] == MS // 2
    assert by_name["apps.safety"] == 2 * MS
    # fleet: 3 − router 0.5 − apps 2; grandchildren are not subtracted twice
    fleet = next(own[sid] for sid, name, *_ in rows if name == "fleet")
    assert fleet == MS // 2


def test_children_inherit_the_request_id_of_their_root():
    resolved = {sid: rid for sid, _, rid, *_ in resolve_rids(SERVER)}
    assert resolved[4] == "safety:7" and resolved[3] == "safety:7"
    assert resolved[7] is None


def test_stage_table_rows_tile_the_root_span():
    table = StageTable(graft(CLIENT, SERVER), "client.get")
    assert table.requests == 1
    assert table.root_p50_ms == 10.0
    assert table.p50_ms("client.get") == 5.0
    assert table.p50_ms("fleet") == 0.5
    # self times partition the root: shares sum to one, the rows sum to the root
    assert sum(row.share for row in table.layers.values()) == pytest.approx(1.0)
    assert table.sum_ratio() == pytest.approx(1.0)
    # warm-up spans are dropped, request-less spans are background
    assert table.count("api.dispatch") == 1
    assert list(table.background) == ["wal.append"]
    assert table.p50_ms("data.historical") == 0.0  # a layer never entered


def test_reach_weights_a_layer_only_some_requests_enter():
    rows = [
        (0, "client.get", "a:0", None, 0, 4 * MS),
        (1, "client.get", "a:1", None, 0, 2 * MS),
        (2, "wal.append", None, 0, MS, 3 * MS),
    ]
    table = StageTable(rows, "client.get")
    assert table.count("wal.append") == 1 and table.p50_ms("wal.append") == 2.0
    # transport p50 2.0 on both requests + wal 2.0 on half of them
    assert table.expected_ms() == pytest.approx(2.0 + 2.0 * 0.5)


def test_recorder_nests_per_thread_and_names_the_request_late():
    ticks = iter(range(0, 1000, 10))
    recorder = SpanRecorder(clock=lambda: next(ticks))
    with recorder.span("api.dispatch") as root:
        with recorder.span("api.parse"):
            pass
        recorder.set_rid("home:3")
    assert root.rid == "home:3"
    rows = {name: (rid, parent, end - start) for _, name, rid, parent, start, end in recorder.rows()}
    assert rows["api.parse"] == (None, root.sid, 10)
    assert rows["api.dispatch"] == ("home:3", None, 30)
