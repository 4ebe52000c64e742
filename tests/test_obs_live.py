"""Live observability plane tests: SSE wire format, sink passivity, server.

The byte-identity test is the contract that makes the dashboard safe to
attach anywhere: a run observed by a LiveSink produces exactly the same
tables, summaries, and counters as a headless run.
"""

import json
import queue
import socket
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro import obs
from repro.obs.live import (
    DashboardServer,
    LiveSink,
    SseBroker,
    heartbeat_comment,
    sse_frame,
    stream_frames,
)
from repro.obs.profiler import CpuProfiler
from repro.obs.slo import SloTarget
from repro.runtime import WorkerNode
from repro.simcore import Environment
from repro.stats.tracing import waterfall_rows

GOLDEN_FOLDED = Path(__file__).parent / "goldens" / "profiler.folded.txt"


# -- SSE framing --------------------------------------------------------------

def test_sse_frame_basic():
    assert sse_frame("hello") == "data: hello\n\n"
    assert sse_frame("hello", event="snapshot") == (
        "event: snapshot\ndata: hello\n\n"
    )
    assert sse_frame("x", event="e", id="7") == "event: e\nid: 7\ndata: x\n\n"


def test_sse_frame_multiline_data():
    # The spec's multi-line encoding: one data: field per line.
    assert sse_frame("a\nb\nc") == "data: a\ndata: b\ndata: c\n\n"
    assert sse_frame("") == "data: \n\n"


def test_heartbeat_is_a_comment_frame():
    frame = heartbeat_comment()
    assert frame.startswith(":")
    assert frame.endswith("\n\n")


def test_stream_frames_counts_data_frames_and_stops_on_sentinel():
    frames: "queue.Queue" = queue.Queue()
    frames.put(sse_frame("one"))
    frames.put(sse_frame("two", event="snapshot"))
    frames.put(None)  # broker close sentinel
    chunks = []
    written = stream_frames(frames, chunks.append, heartbeat_s=1.0)
    assert written == 2
    text = b"".join(chunks).decode()
    assert text.count("\n\n") == 2
    assert "event: snapshot" in text


def test_stream_frames_emits_heartbeat_when_idle():
    frames: "queue.Queue" = queue.Queue()
    chunks = []

    def write(chunk):
        chunks.append(chunk)
        if len(chunks) >= 2:
            raise BrokenPipeError  # stop the loop after two heartbeats

    written = stream_frames(frames, write, heartbeat_s=0.01)
    assert written == 0  # heartbeats are comments, not data frames
    assert all(chunk.startswith(b":") for chunk in chunks)


def test_stream_frames_stops_on_client_disconnect_mid_stream():
    frames: "queue.Queue" = queue.Queue()
    for index in range(5):
        frames.put(sse_frame(f"frame-{index}"))
    writes = []

    def write(chunk):
        if len(writes) == 2:
            raise ConnectionResetError  # client went away mid-stream
        writes.append(chunk)

    written = stream_frames(frames, write, heartbeat_s=1.0)
    assert written == 2
    assert frames.qsize() == 2  # remaining frames undelivered, loop exited


def test_broker_fans_out_and_drops_oldest_when_full():
    broker = SseBroker(queue_depth=2)
    first = broker.subscribe()
    second = broker.subscribe()
    assert broker.client_count == 2
    for index in range(5):
        broker.publish(f"p{index}")
    # Depth 2, drop-oldest: each client holds only the newest two frames.
    assert [first.get_nowait(), first.get_nowait()] == [
        sse_frame("p3"),
        sse_frame("p4"),
    ]
    broker.unsubscribe(first)
    broker.close()
    drained = []
    while True:
        frame = second.get_nowait()
        if frame is None:
            break
        drained.append(frame)
    assert drained[-1] == sse_frame("p4")
    assert broker.frames_published == 5


# -- the passive observer hook ------------------------------------------------

def test_environment_observer_sees_every_event():
    env = Environment()
    seen = []
    env.add_observer(seen.append)
    env.timeout(1.0)
    env.timeout(2.0)
    env.run(until=3.0)
    assert seen == [1.0, 2.0]
    assert env.events_processed == 2
    env.remove_observer(seen.append)
    env.timeout(1.0)
    env.run(until=5.0)
    assert seen == [1.0, 2.0]
    assert env.events_processed == 3


def test_live_attached_run_is_byte_identical_to_headless():
    """The tentpole contract: observing a run changes nothing about it."""
    from repro.experiments.common import run_closed_loop
    from repro.workloads import boutique

    def one_run():
        result = run_closed_loop(
            "s-spright",
            boutique.spright_functions(),
            boutique.request_classes(),
            concurrency=4,
            duration=1.0,
            scale=0.05,
            audit=True,
        )
        return (
            result.auditor.table().render(),
            result.recorder.summary("").as_dict(),
            result.node.counters.as_dict(),
        )

    headless = one_run()
    sink = LiveSink(interval=0.01, wall_interval=0.0)
    client = sink.broker.subscribe()
    obs.set_default_live_sink(sink)
    try:
        observed = one_run()
    finally:
        obs.set_default_live_sink(None)
        sink.detach_all()
    assert sink.snapshots_built > 10  # the sink really was observing
    assert not client.empty()         # and publishing over SSE
    assert headless == observed


def test_sink_snapshot_sections_and_events_feed():
    sink = LiveSink(interval=0.01, wall_interval=0.0)
    node = WorkerNode()
    sink.attach(node.obs)
    sink.attach(node.obs)  # idempotent
    assert len(sink._bundles) == 1
    node.counters.incr("recovery/restarts")
    node.counters.incr("ops/s-spright/copy", 5)
    node.obs.registry.gauge("autoscale/fn/request_rate").set(12.5)
    hist = node.obs.registry.histogram("latency/fn", bounds=(0.1, 0.2, 0.4))
    for _ in range(10):
        hist.observe(0.15)
    snapshot = sink.tick(1.0)
    assert snapshot["schema"] == "spright.live/1"
    metrics = snapshot["metrics"]["nodes"][0]
    assert metrics["name"] == "worker-1"
    assert metrics["counters"]["ops/s-spright/copy"] == 5
    assert metrics["gauges"]["autoscale/fn/request_rate"] == 12.5
    assert 0.1 <= metrics["histograms"]["latency/fn"]["p99"] <= 0.2
    events = snapshot["events"]["recent"]
    assert [event["name"] for event in events] == ["recovery/restarts"]
    assert events[0]["delta"] == 1
    # Deltas only surface once; a later tick adds nothing new.
    assert sink.tick(2.0)["events"]["recent"] == events
    assert sink.section("metrics")["schema"] == "spright.live.metrics/1"
    assert sink.events_snapshot()["dropped"] == 0


def test_sink_slo_section_pairs_latency_histograms_with_targets():
    sink = LiveSink(interval=0.01, wall_interval=0.0)
    node = WorkerNode()
    sink.attach(node.obs)
    hist = node.obs.registry.histogram("latency/frontend", bounds=(0.1, 0.3))
    for _ in range(20):
        hist.observe(0.05)
    monitor = sink.slo.add_target(
        SloTarget("frontend", objective=0.9, latency_threshold_s=0.3)
    )
    monitor.record(0.5, good=18, bad=2)
    section = sink.tick(1.0)["slo"]
    (target,) = section["targets"]
    assert target["name"] == "frontend"
    assert target["attainment"] == pytest.approx(0.9)
    assert target["p99_s"] is not None


def test_sink_finalize_marks_snapshot_complete():
    sink = LiveSink(interval=0.01, wall_interval=0.0)
    node = WorkerNode()
    sink.attach(node.obs)
    client = sink.broker.subscribe()
    snapshot = sink.finalize(now=2.5)
    assert snapshot["complete"] is True
    frame = client.get_nowait()
    assert frame.startswith("event: complete\n")


def test_sink_openmetrics_merges_nodes_with_one_eof():
    sink = LiveSink(interval=0.01, wall_interval=0.0)
    env = Environment()
    first = WorkerNode(env=env, name="worker-1")
    second = WorkerNode(env=env, name="worker-2")
    sink.attach(first.obs)
    sink.attach(second.obs)
    first.counters.incr("ops/s-spright/copy", 3)
    second.counters.incr("ops/s-spright/copy", 4)
    text = sink.openmetrics()
    assert text.count("# EOF") == 1
    assert text.endswith("# EOF\n")
    assert 'node="worker-1"' in text and 'node="worker-2"' in text


# -- span waterfalls (clamped stamps + event markers) -------------------------

def _traced_request(tracer, env):
    class _Request:
        created_at = env.now
        span = None

    request = _Request()
    tracer.start_request(request, "req frontend: s-spright")
    return request


def test_span_waterfall_rows_clamp_out_of_order_and_mark_events():
    env = Environment()
    from repro.obs.span import Tracer

    tracer = Tracer(env)
    request = _traced_request(tracer, env)
    env._now = 0.001
    tracer.on_mark(request, "gw-in", 0.001)
    # A fault-injection retry: an EVENT_MILESTONES marker at t=0.0015.
    env._now = 0.0015
    tracer.on_mark(request, "retry:frontend", 0.0015)
    # An out-of-order stamp: earlier than the previous milestone.
    tracer.on_mark(request, "warped", 0.0005)
    env._now = 0.002
    tracer.finish_request(request)
    root = request.span
    children = [
        span for span in tracer.finished_spans() if span.parent == root.sid
    ]
    rows = waterfall_rows(root, children)
    by_name = {row["name"]: row for row in rows}
    # The clamped milestone renders as a "!" marker, never a fake bar.
    warped = by_name["warped"]
    assert warped["out_of_order"] and warped["marker"] == "!"
    assert warped["duration_s"] == 0.0
    # The retry event span is a zero-width "!" marker row of kind event.
    retry = by_name["retry:frontend"]
    assert retry["kind"] == "event"
    assert retry["marker"] == "!"
    assert retry["width_frac"] == 0.0
    assert retry["start_s"] == pytest.approx(0.0015)
    # Real phases keep "#" markers, and all geometry stays inside [0, 1].
    assert by_name["gw-in"]["marker"] == "#"
    for row in rows:
        assert 0.0 <= row["offset_frac"] <= 1.0
        assert 0.0 <= row["width_frac"] <= 1.0


def test_sink_spans_section_carries_waterfall_rows():
    sink = LiveSink(interval=0.01, wall_interval=0.0, spans_window=4)
    node = WorkerNode()
    tracer = node.obs.enable_tracing()
    sink.attach(node.obs)
    for index in range(6):
        request = _traced_request(tracer, node.env)
        node.env._now += 0.001
        tracer.on_mark(request, "done", node.env.now)
        tracer.finish_request(request)
    section = sink.tick(node.env.now)["spans"]
    assert len(section["waterfalls"]) == 4  # rolling window
    waterfall = section["waterfalls"][-1]
    assert waterfall["node"] == "worker-1"
    assert waterfall["rows"]
    obs.reset_sessions()


# -- the HTTP server ----------------------------------------------------------

@pytest.fixture()
def dashboard():
    sink = LiveSink(interval=0.01, wall_interval=0.0)
    node = WorkerNode()
    sink.attach(node.obs)
    node.counters.incr("ops/s-spright/copy", 7)
    node.counters.incr("recovery/restarts", 2)
    sink.tick(1.0)
    server = DashboardServer(sink, port=0, heartbeat_s=0.05)
    server.start()
    yield sink, server
    server.stop()


def _get(server, path):
    with urllib.request.urlopen(f"{server.url}{path}", timeout=5) as response:
        return response.status, response.headers, response.read()


def test_server_serves_dashboard_page(dashboard):
    _sink, server = dashboard
    status, headers, body = _get(server, "/")
    assert status == 200
    assert "text/html" in headers["Content-Type"]
    assert b"<!DOCTYPE html>" in body
    assert b"EventSource" in body


def test_server_json_snapshot_endpoints(dashboard):
    _sink, server = dashboard
    for path, schema in (
        ("/metrics.json", "spright.live.metrics/1"),
        ("/spans.json", "spright.live.spans/1"),
        ("/economics.json", "spright.live.economics/1"),
        ("/slo.json", "spright.live.slo/1"),
    ):
        status, headers, body = _get(server, path)
        assert status == 200
        assert "application/json" in headers["Content-Type"]
        payload = json.loads(body)
        assert payload["schema"] == schema
        assert payload["now"] == 1.0
    status, _headers, body = _get(server, "/metrics.json")
    nodes = json.loads(body)["nodes"]
    assert nodes[0]["counters"]["ops/s-spright/copy"] == 7
    status, _headers, body = _get(server, "/snapshot.json")
    assert json.loads(body)["schema"] == "spright.live/1"
    status, _headers, body = _get(server, "/events.json")
    payload = json.loads(body)
    assert payload["schema"] == "spright.live.events/1"
    assert payload["events"][0]["name"] == "recovery/restarts"


def test_server_openmetrics_scrape(dashboard):
    _sink, server = dashboard
    status, headers, body = _get(server, "/metrics")
    assert status == 200
    assert "openmetrics-text" in headers["Content-Type"]
    text = body.decode()
    assert text.endswith("# EOF\n")
    assert 'spright_ops_s_spright_copy_total{node="worker-1"} 7' in text


def test_server_unknown_path_is_404(dashboard):
    _sink, server = dashboard
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(server, "/nope")
    assert excinfo.value.code == 404


def _read_until(sock, marker, limit=65536):
    data = b""
    while marker not in data and len(data) < limit:
        chunk = sock.recv(4096)
        if not chunk:
            break
        data += chunk
    return data


def test_server_sse_stream_and_disconnect_cleanup(dashboard):
    sink, server = dashboard
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=5)
    try:
        sock.sendall(
            b"GET /events HTTP/1.1\r\nHost: t\r\n"
            b"Accept: text/event-stream\r\n\r\n"
        )
        head = _read_until(sock, b"\n\n")
        assert b"200" in head.split(b"\r\n", 1)[0]
        assert b"text/event-stream" in head
        # The handler replays the latest snapshot immediately on connect.
        assert b"event: snapshot" in head
        # A fresh tick streams a new frame to the live subscriber.
        sink.tick(2.0)
        frame = _read_until(sock, b"\n\n")
        assert b"event: snapshot" in frame or b"event: snapshot" in head
    finally:
        sock.close()
    # Disconnect cleanup: the handler notices on its next write (heartbeat
    # every 0.05s here) and unsubscribes the dead client's queue.
    deadline = threading.Event()
    for _ in range(100):
        if sink.broker.client_count == 0:
            break
        deadline.wait(0.05)
    assert sink.broker.client_count == 0


# -- profiler folded-stack golden ---------------------------------------------

_PROFILE_CHARGES = [
    ("s-spright/gateway/pod-1", "copy", 12e-6),
    ("s-spright/gateway/pod-1", (("ebpf_run", 3e-6), ("map_lookup", 1e-6)), 4e-6),
    ("knative/queue-proxy/pod-2", "context_switch", 5e-6),
    ("s-spright/fn/frontend", None, 2.5e-6),
    ("s-spright/gateway/pod-1", "copy", 1e-6),
    ("d-spright/nic/dma", "service", 7.25e-6),
]


def test_profiler_folded_matches_golden_in_any_insertion_order():
    forward = CpuProfiler()
    for tag, op, seconds in _PROFILE_CHARGES:
        forward.record(tag, op, seconds)
    backward = CpuProfiler()
    for tag, op, seconds in reversed(_PROFILE_CHARGES):
        backward.record(tag, op, seconds)
    golden = GOLDEN_FOLDED.read_text()
    assert forward.folded() == golden
    assert backward.folded() == golden  # sorted by stack, not arrival
    assert forward.total == pytest.approx(backward.total)
