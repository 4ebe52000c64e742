"""Metrics server: the control-plane sink that autoscalers scrape.

Queue proxies (Knative) and the SPRIGHT gateway's metrics agent (reading the
EPROXY/SPROXY eBPF metric maps) both push :class:`PodMetrics` here.

The autoscaling signals live as named gauges (``autoscale/<fn>/request_rate``
etc.) in a :class:`repro.obs.MetricsRegistry` — one source of truth that also
renders through the OpenMetrics exporter. Experiments pass their node's
registry; a server built without one keeps a private registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..obs import MetricsRegistry


@dataclass
class PodMetrics:
    """One scrape sample from one pod/function."""

    function: str
    timestamp: float
    request_rate: float          # req/s over the reporter's window
    concurrency: int             # in-flight requests
    response_time: float = 0.0   # recent mean, seconds


class MetricsServer:
    """Latest-sample store, keyed by function name.

    ``registry``: the :class:`repro.obs.MetricsRegistry` holding the latest
    sample per function as ``autoscale/*`` gauges (a fresh private one when
    omitted).
    """

    def __init__(
        self,
        staleness_limit: float = 30.0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.staleness_limit = staleness_limit
        self.registry = registry or MetricsRegistry()
        self._seen: set[str] = set()
        self.reports_received = 0

    def report(self, sample: PodMetrics) -> None:
        self.reports_received += 1
        prefix = f"autoscale/{sample.function}"
        self.registry.gauge(f"{prefix}/request_rate").set(sample.request_rate)
        self.registry.gauge(f"{prefix}/concurrency").set(sample.concurrency)
        self.registry.gauge(f"{prefix}/response_time").set(sample.response_time)
        self.registry.gauge(f"{prefix}/timestamp").set(sample.timestamp)
        self._seen.add(sample.function)

    def latest(self, function: str, now: Optional[float] = None) -> Optional[PodMetrics]:
        if function not in self._seen:
            return None
        prefix = f"autoscale/{function}"
        sample = PodMetrics(
            function=function,
            timestamp=self.registry.gauge(f"{prefix}/timestamp").value,
            request_rate=self.registry.gauge(f"{prefix}/request_rate").value,
            concurrency=int(self.registry.gauge(f"{prefix}/concurrency").value),
            response_time=self.registry.gauge(f"{prefix}/response_time").value,
        )
        if now is not None and now - sample.timestamp > self.staleness_limit:
            return None
        return sample

    def request_rate(self, function: str, now: Optional[float] = None) -> float:
        sample = self.latest(function, now)
        return sample.request_rate if sample else 0.0

    def concurrency(self, function: str, now: Optional[float] = None) -> int:
        sample = self.latest(function, now)
        return sample.concurrency if sample else 0

    def snapshot(self, now: Optional[float] = None) -> dict:
        """Autoscaling state as one JSON-ready dict (the live-dashboard and
        experiment-report view): the latest sample per function, with each
        sample's staleness judged against ``now`` when given.

        Unlike :meth:`latest`, stale functions are still listed — marked
        ``stale`` — so a dashboard shows a scraper that went quiet instead
        of silently dropping the row.
        """
        rows = []
        for function in self.functions():
            sample = self.latest(function)  # no staleness cut here
            if sample is None:  # pragma: no cover - functions() implies a sample
                continue
            rows.append(
                {
                    "function": function,
                    "timestamp": sample.timestamp,
                    "request_rate": sample.request_rate,
                    "concurrency": sample.concurrency,
                    "response_time": sample.response_time,
                    "stale": (
                        now is not None
                        and now - sample.timestamp > self.staleness_limit
                    ),
                }
            )
        return {
            "schema": "spright.autoscale/1",
            "reports_received": self.reports_received,
            "functions": rows,
        }

    def functions(self) -> list[str]:
        return sorted(self._seen)
