"""Live observability plane: SSE streaming of a running simulation.

Three pieces, layered so each is testable alone:

* :func:`sse_frame` / :func:`stream_frames` / :class:`SseBroker` — the
  Server-Sent-Events wire: framing (``event:`` / ``data:`` / blank line),
  heartbeat comments, bounded per-client queues with drop-oldest backpressure,
  and clean teardown on client disconnect.

* :class:`LiveSink` — the bridge between the simulation and the outside
  world. It registers a **passive observer** on each attached node's
  :class:`~repro.simcore.Environment` (see ``Environment.add_observer``):
  after every processed event the sink gets a chance to snapshot, throttled
  to one snapshot per ``interval`` simulated seconds (plus an optional
  wall-clock floor). Snapshots read the node's
  :class:`~repro.obs.metrics.MetricsRegistry`, tracer span trees, the
  ``traffic/*`` economics namespace, and the :class:`~repro.obs.slo.SloBoard`
  — and *only read*: the sink draws no RNG, schedules no events, and
  therefore leaves a live-attached run byte-identical to a headless one
  (CI-asserted).

* :class:`DashboardServer` — a zero-dependency stdlib
  ``ThreadingHTTPServer`` serving the static dashboard page, JSON snapshot
  endpoints (``/metrics.json``, ``/spans.json``, ``/economics.json``,
  ``/slo.json``, ``/events.json``), an OpenMetrics scrape (``/metrics``,
  node-labeled), and the ``/events`` SSE stream the page subscribes to.

Thread model: the simulation runs on one thread and produces snapshots;
HTTP handler threads only ever read the most recent snapshot (an
atomically swapped dict) or drain their own queue — no handler thread
touches live simulation state.
"""

from __future__ import annotations

import contextlib
import json
import queue as queue_module
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Optional
from urllib.parse import urlsplit

from ..stats.tracing import waterfall_rows
from .metrics import CounterMetric, GaugeMetric, HistogramMetric
from .slo import SloBoard, histogram_quantile

STATIC_DIR = Path(__file__).parent / "static"

#: Counter namespaces whose per-tick deltas surface as dashboard events.
EVENT_PREFIXES = ("recovery/", "admission/", "faults/", "sanitizer/")

#: End-of-stream sentinel a broker pushes when closing.
_CLOSE = None


# -- SSE wire format ----------------------------------------------------------

def sse_frame(data: str, event: Optional[str] = None, id: Optional[str] = None) -> str:
    """One Server-Sent-Events frame: optional event/id, multi-line data.

    Every line of ``data`` gets its own ``data:`` field (the SSE spec's
    multi-line encoding) and the frame is terminated by the mandatory
    blank line.
    """
    lines = []
    if event is not None:
        lines.append(f"event: {event}")
    if id is not None:
        lines.append(f"id: {id}")
    for line in (data.split("\n") if data else [""]):
        lines.append(f"data: {line}")
    return "\n".join(lines) + "\n\n"


def heartbeat_comment() -> str:
    """An SSE comment frame: keeps idle connections alive, clients ignore it."""
    return ": heartbeat\n\n"


def stream_frames(
    frames: "queue_module.Queue",
    write: Callable[[bytes], object],
    flush: Optional[Callable[[], object]] = None,
    heartbeat_s: float = 10.0,
    max_frames: Optional[int] = None,
) -> int:
    """Pump frames from a queue to a client until disconnect or close.

    Waits up to ``heartbeat_s`` for the next frame; on timeout a heartbeat
    comment goes out instead so proxies do not reap the connection. A
    ``None`` sentinel (broker close) or any connection error (client went
    away mid-stream) ends the loop. Returns the number of *data* frames
    written — the unit tests' observable.
    """
    written = 0
    while max_frames is None or written < max_frames:
        try:
            frame = frames.get(timeout=heartbeat_s)
        except queue_module.Empty:
            frame = heartbeat_comment()
        if frame is _CLOSE:
            break
        try:
            write(frame.encode("utf-8"))
            if flush is not None:
                flush()
        except (BrokenPipeError, ConnectionResetError, OSError):
            break
        if not frame.startswith(":"):
            written += 1
    return written


class SseBroker:
    """Fan-out of rendered SSE frames to any number of client queues."""

    def __init__(self, queue_depth: int = 64) -> None:
        self.queue_depth = queue_depth
        self._clients: list[queue_module.Queue] = []
        self._lock = threading.Lock()
        self.frames_published = 0

    def subscribe(self) -> "queue_module.Queue":
        client: queue_module.Queue = queue_module.Queue(maxsize=self.queue_depth)
        with self._lock:
            self._clients.append(client)
        return client

    def unsubscribe(self, client: "queue_module.Queue") -> None:
        with self._lock:
            if client in self._clients:
                self._clients.remove(client)

    @property
    def client_count(self) -> int:
        with self._lock:
            return len(self._clients)

    def publish(self, data: str, event: Optional[str] = None) -> None:
        """Render one frame and enqueue it for every client.

        A slow client never blocks the simulation: when its queue is full
        the oldest frame is dropped to make room (live views want the
        newest state, not a complete history).
        """
        frame = sse_frame(data, event=event)
        with self._lock:
            clients = list(self._clients)
        self.frames_published += 1
        for client in clients:
            while True:
                try:
                    client.put_nowait(frame)
                    break
                except queue_module.Full:
                    try:
                        client.get_nowait()
                    except queue_module.Empty:
                        pass

    def close(self) -> None:
        """Wake every streaming loop with the end-of-stream sentinel."""
        with self._lock:
            clients = list(self._clients)
        for client in clients:
            try:
                client.put_nowait(_CLOSE)
            except queue_module.Full:
                try:
                    client.get_nowait()
                    client.put_nowait(_CLOSE)
                except (queue_module.Empty, queue_module.Full):
                    pass


# -- the sink -----------------------------------------------------------------

class LiveSink:
    """Passive, throttled snapshot producer over attached node bundles.

    ``interval`` throttles in **simulated** seconds; ``wall_interval``
    adds an optional wall-clock floor so a simulation running much faster
    than real time does not build thousands of snapshots per wall second
    (0 disables the floor — what deterministic tests use).
    """

    def __init__(
        self,
        interval: float = 0.25,
        wall_interval: float = 0.1,
        spans_window: int = 16,
        events_window: int = 200,
        slo_board: Optional[SloBoard] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self.wall_interval = wall_interval
        self.spans_window = spans_window
        self.events_window = events_window
        self.broker = SseBroker()
        self.slo = slo_board or SloBoard()
        self._bundles: list = []
        self._envs: list = []
        self._last_sim: Optional[float] = None
        self._last_wall: float = 0.0
        self._counter_shadow: list[dict[str, float]] = []
        self._events: list[dict] = []
        self._events_dropped = 0
        self._latest: Optional[dict] = None
        self._swap = threading.Lock()
        self.snapshots_built = 0
        self.scenario: Optional[str] = None

    def set_scenario(self, name: Optional[str]) -> None:
        """Name the running scenario; shown as a dashboard tile."""
        self.scenario = name

    # -- attachment ----------------------------------------------------------
    def attach(self, bundle) -> None:
        """Watch one node's Observability bundle; hook its env observer."""
        if bundle in self._bundles:
            return
        self._bundles.append(bundle)
        self._counter_shadow.append({})
        env = bundle.env
        if env not in self._envs:
            self._envs.append(env)
            env.add_observer(self._on_event)

    def detach_all(self) -> None:
        for env in self._envs:
            env.remove_observer(self._on_event)
        self._envs.clear()

    # -- ticking -------------------------------------------------------------
    def _on_event(self, now: float) -> None:
        """Environment observer: throttle, then snapshot + publish."""
        if self._last_sim is not None and now - self._last_sim < self.interval:
            return
        if self.wall_interval > 0.0:
            wall = time.perf_counter()
            if wall - self._last_wall < self.wall_interval:
                return
            self._last_wall = wall
        self._last_sim = now
        self.tick(now)

    def tick(self, now: float) -> dict:
        """Build a snapshot at sim time ``now`` and publish it over SSE."""
        snapshot = self.snapshot(now)
        self.broker.publish(
            json.dumps(snapshot, separators=(",", ":")), event="snapshot"
        )
        return snapshot

    def finalize(self, now: Optional[float] = None) -> dict:
        """Final snapshot at run end, published as a ``complete`` event."""
        if now is None:
            now = self._envs[0].now if self._envs else 0.0
        snapshot = self.snapshot(now)
        snapshot["complete"] = True
        self.broker.publish(
            json.dumps(snapshot, separators=(",", ":")), event="complete"
        )
        return snapshot

    # -- snapshot builders ---------------------------------------------------
    def snapshot(self, now: Optional[float] = None) -> dict:
        """The full dashboard payload; caches as :attr:`latest`."""
        if now is None:
            now = self._envs[0].now if self._envs else 0.0
        self.slo.tick(now)
        self._derive_events(now)
        snapshot = {
            "schema": "spright.live/1",
            "scenario": self.scenario,
            "now": now,
            "events_processed": sum(
                env.events_processed for env in self._envs
            ),
            "metrics": self.metrics_snapshot(now),
            "spans": self.spans_snapshot(now),
            "economics": self.economics_snapshot(now),
            "slo": self.slo_snapshot(now),
            "events": {"recent": self._events[-25:]},
        }
        with self._swap:
            self._latest = snapshot
            self.snapshots_built += 1
        return snapshot

    @property
    def latest(self) -> Optional[dict]:
        with self._swap:
            return self._latest

    def section(self, name: str) -> dict:
        """One snapshot section; builds a fresh snapshot only when none
        exists yet (before the first simulated event — no race possible)."""
        snapshot = self.latest
        if snapshot is None:
            snapshot = self.snapshot()
        if name == "all":
            return snapshot
        payload = dict(snapshot[name])
        payload.setdefault("schema", f"spright.live.{name}/1")
        payload.setdefault("now", snapshot["now"])
        return payload

    def _labels(self) -> list[str]:
        labels = []
        for index, bundle in enumerate(self._bundles):
            labels.append(getattr(bundle, "label", None) or f"node-{index}")
        return labels

    def metrics_snapshot(self, now: float) -> dict:
        nodes = []
        for label, bundle in zip(self._labels(), self._bundles):
            registry = bundle.registry
            counters: dict[str, float] = {}
            gauges: dict[str, float] = {}
            histograms: dict[str, dict] = {}
            for name in registry.names():
                metric = registry.find(name)
                if isinstance(metric, CounterMetric):
                    counters[name] = metric.value
                elif isinstance(metric, GaugeMetric):
                    gauges[name] = metric.value
                elif isinstance(metric, HistogramMetric):
                    histograms[name] = {
                        "count": metric.count,
                        "sum": metric.total,
                        "p50": _finite(histogram_quantile(metric, 0.50)),
                        "p90": _finite(histogram_quantile(metric, 0.90)),
                        "p99": _finite(histogram_quantile(metric, 0.99)),
                    }
            nodes.append(
                {
                    "name": label,
                    "counters": counters,
                    "gauges": gauges,
                    "histograms": histograms,
                }
            )
        return {"schema": "spright.live.metrics/1", "now": now, "nodes": nodes}

    def spans_snapshot(self, now: float) -> dict:
        """Rolling waterfalls of the most recently finished requests."""
        waterfalls = []
        for label, bundle in zip(self._labels(), self._bundles):
            tracer = bundle.tracer
            if tracer is None:
                continue
            children_of = tracer.children_index()
            for root in tracer.roots()[-self.spans_window:]:
                children = children_of.get(root.sid, [])
                # Event markers hang off the root; leg/shm spans hang off
                # phases — the waterfall wants phases + root-level events.
                waterfalls.append(
                    {
                        "node": label,
                        "request": root.name,
                        "start_s": root.start,
                        "duration_s": root.duration,
                        "rows": waterfall_rows(root, children),
                    }
                )
        return {
            "schema": "spright.live.spans/1",
            "now": now,
            "waterfalls": waterfalls[-self.spans_window:],
        }

    def economics_snapshot(self, now: float) -> dict:
        from ..traffic.economics import rows_from_registry

        rows: list[dict] = []
        for label, bundle in zip(self._labels(), self._bundles):
            for row in rows_from_registry(bundle.registry):
                row["node"] = label
                rows.append(row)
        return {"schema": "spright.live.economics/1", "now": now, "rows": rows}

    def slo_snapshot(self, now: float) -> dict:
        histograms: dict[str, HistogramMetric] = {}
        for bundle in self._bundles:
            for name in bundle.registry.names():
                metric = bundle.registry.find(name)
                if isinstance(metric, HistogramMetric) and name.startswith(
                    "latency/"
                ):
                    # latency/<target> histograms pair with same-named targets.
                    histograms.setdefault(name.split("/", 1)[1], metric)
        return {
            "schema": "spright.live.slo/1",
            "now": now,
            "targets": [
                status.as_dict() for status in self.slo.status(now, histograms)
            ],
        }

    def _derive_events(self, now: float) -> None:
        """Turn counter deltas under the event prefixes into feed rows."""
        for index, bundle in enumerate(self._bundles):
            shadow = self._counter_shadow[index]
            for metric in bundle.registry.counters():
                name = metric.name
                if not name.startswith(EVENT_PREFIXES):
                    continue
                previous = shadow.get(name, 0)
                if metric.value != previous:
                    shadow[name] = metric.value
                    self._events.append(
                        {
                            "t": now,
                            "kind": name.split("/", 1)[0],
                            "name": name,
                            "delta": metric.value - previous,
                            "total": metric.value,
                        }
                    )
        if len(self._events) > self.events_window:
            self._events_dropped += len(self._events) - self.events_window
            del self._events[: len(self._events) - self.events_window]

    def events_snapshot(self) -> dict:
        return {
            "schema": "spright.live.events/1",
            "dropped": self._events_dropped,
            "events": list(self._events),
        }

    # -- OpenMetrics ---------------------------------------------------------
    def openmetrics(self, prefix: str = "spright") -> str:
        """One merged node-labeled exposition over every attached bundle."""
        from .export import render_openmetrics

        parts = []
        for label, bundle in zip(self._labels(), self._bundles):
            text = render_openmetrics(
                bundle.registry, prefix=prefix, labels={"node": label}
            )
            parts.append(text[: -len("# EOF\n")])
        return "".join(parts) + "# EOF\n"


def _finite(value: float) -> Optional[float]:
    return None if value != value else value


# -- the HTTP server ----------------------------------------------------------

JSON_SECTIONS = {
    "/metrics.json": "metrics",
    "/spans.json": "spans",
    "/economics.json": "economics",
    "/slo.json": "slo",
}


class _DashboardHandler(BaseHTTPRequestHandler):
    """Routes; the server class injects ``sink`` and ``heartbeat_s``."""

    sink: LiveSink
    heartbeat_s: float
    server_version = "spright-live/1"
    protocol_version = "HTTP/1.1"

    def log_message(self, *_args) -> None:  # quiet: the report owns stdout
        pass

    def _send(self, body: bytes, content_type: str, status: int = 200) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, payload: dict) -> None:
        self._send(
            json.dumps(payload, indent=1).encode("utf-8") + b"\n",
            "application/json; charset=utf-8",
        )

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path = urlsplit(self.path).path
        try:
            if path in ("/", "/index.html"):
                page = STATIC_DIR / "dashboard.html"
                self._send(page.read_bytes(), "text/html; charset=utf-8")
            elif path in JSON_SECTIONS:
                self._send_json(self.sink.section(JSON_SECTIONS[path]))
            elif path == "/events.json":
                self._send_json(self.sink.events_snapshot())
            elif path == "/snapshot.json":
                self._send_json(self.sink.section("all"))
            elif path == "/metrics":
                self._send(
                    self.sink.openmetrics().encode("utf-8"),
                    "application/openmetrics-text; version=1.0.0; charset=utf-8",
                )
            elif path == "/events":
                self._serve_sse()
            else:
                self._send(b"not found\n", "text/plain; charset=utf-8", 404)
        except (BrokenPipeError, ConnectionResetError):
            pass

    def _serve_sse(self) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream; charset=utf-8")
        self.send_header("Cache-Control", "no-store")
        # SSE is an unbounded stream: no Content-Length, close delimits.
        self.send_header("Connection", "close")
        self.end_headers()
        client = self.sink.broker.subscribe()
        try:
            latest = self.sink.latest
            if latest is not None:
                self.wfile.write(
                    sse_frame(
                        json.dumps(latest, separators=(",", ":")),
                        event="snapshot",
                    ).encode("utf-8")
                )
                self.wfile.flush()
            stream_frames(
                client,
                self.wfile.write,
                self.wfile.flush,
                heartbeat_s=self.heartbeat_s,
            )
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass
        finally:
            self.sink.broker.unsubscribe(client)


class DashboardServer:
    """The dashboard's threaded HTTP server (daemon threads, port 0 = any)."""

    def __init__(
        self,
        sink: LiveSink,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_s: float = 10.0,
    ) -> None:
        self.sink = sink
        handler = type(
            "BoundDashboardHandler",
            (_DashboardHandler,),
            {"sink": sink, "heartbeat_s": heartbeat_s},
        )
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        host = self.httpd.server_address[0]
        return f"http://{host}:{self.port}"

    def start(self) -> "DashboardServer":
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="spright-dashboard", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self.sink.broker.close()
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


@contextlib.contextmanager
def dashboard_session(host: str = "127.0.0.1", port: int = 0):
    """Run a live dashboard around a block of simulation work.

    Installs a process-wide :class:`LiveSink` (every node created inside
    the block auto-attaches) and serves it over HTTP/SSE. The URL is
    printed to **stderr** so the wrapped command's stdout stays
    byte-identical to a headless run.
    """
    from . import set_default_live_sink

    sink = LiveSink()
    server = DashboardServer(sink, host=host, port=port)
    server.start()
    set_default_live_sink(sink)
    print(f"spright-repro dashboard: {server.url}", file=sys.stderr)
    try:
        yield sink, server
    finally:
        set_default_live_sink(None)
        sink.detach_all()
        server.stop()
