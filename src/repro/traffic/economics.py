"""Cold-start economics: what a keep-alive policy actually costs.

Accounts, per function and per cell, the quantities the policy literature
argues about: cold-start counts and latency penalty, wasted warm pod-seconds
(pods idle-but-warm), the CPU-seconds those idle pods burned (plane
dependent — the crux of SPRIGHT's advantage), goodput, and SLO attainment.

The lightweight fleet simulator (:mod:`repro.traffic.fleet`) fills one
ledger per cell. Ledgers merge associatively (the fleet runner shards cells
across worker processes and folds the results), and publishing into a
:class:`repro.obs.MetricsRegistry` is deterministic: sorted function order,
counters before gauges.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SloPolicy:
    """A latency objective: a request 'attains' if latency <= threshold."""

    threshold_s: float = 0.25

    def __post_init__(self) -> None:
        if self.threshold_s <= 0:
            raise ValueError("threshold_s must be positive")

    def attained(self, latency_s: float) -> bool:
        return latency_s <= self.threshold_s


@dataclass
class FunctionEconomics:
    """Per-function tallies."""

    requests: int = 0
    cold_starts: int = 0
    warm_starts: int = 0
    cold_penalty_s: float = 0.0       # summed cold-start latency paid
    wasted_warm_pod_s: float = 0.0    # pod-seconds warm but idle
    wasted_warm_cpu_s: float = 0.0    # CPU-seconds those idle pods burned
    busy_pod_s: float = 0.0           # pod-seconds actually serving
    slo_hits: int = 0

    def merge(self, other: "FunctionEconomics") -> None:
        self.requests += other.requests
        self.cold_starts += other.cold_starts
        self.warm_starts += other.warm_starts
        self.cold_penalty_s += other.cold_penalty_s
        self.wasted_warm_pod_s += other.wasted_warm_pod_s
        self.wasted_warm_cpu_s += other.wasted_warm_cpu_s
        self.busy_pod_s += other.busy_pod_s
        self.slo_hits += other.slo_hits


@dataclass
class EconomicsLedger:
    """Cold-start economics for one simulation cell."""

    slo: SloPolicy = field(default_factory=SloPolicy)
    per_fn: dict[str, FunctionEconomics] = field(default_factory=dict)

    def fn(self, name: str) -> FunctionEconomics:
        entry = self.per_fn.get(name)
        if entry is None:
            entry = FunctionEconomics()
            self.per_fn[name] = entry
        return entry

    # -- recording -----------------------------------------------------------
    def record_request(
        self, fn: str, latency_s: float, cold: bool, penalty_s: float = 0.0
    ) -> None:
        entry = self.fn(fn)
        entry.requests += 1
        if cold:
            entry.cold_starts += 1
            entry.cold_penalty_s += penalty_s
        else:
            entry.warm_starts += 1
        if self.slo.attained(latency_s):
            entry.slo_hits += 1

    def record_warm_idle(
        self, fn: str, pod_seconds: float, idle_cpu_frac: float
    ) -> None:
        if pod_seconds <= 0:
            return
        entry = self.fn(fn)
        entry.wasted_warm_pod_s += pod_seconds
        entry.wasted_warm_cpu_s += pod_seconds * idle_cpu_frac

    def record_busy(self, fn: str, pod_seconds: float) -> None:
        if pod_seconds > 0:
            self.fn(fn).busy_pod_s += pod_seconds

    # -- aggregation ---------------------------------------------------------
    def total(self) -> FunctionEconomics:
        out = FunctionEconomics()
        for name in sorted(self.per_fn):
            out.merge(self.per_fn[name])
        return out

    def merge(self, other: "EconomicsLedger") -> None:
        for name in sorted(other.per_fn):
            self.fn(name).merge(other.per_fn[name])

    def slo_attainment(self) -> float:
        total = self.total()
        if total.requests == 0:
            return float("nan")
        return total.slo_hits / total.requests

    def goodput(self, duration_s: float) -> float:
        """SLO-attaining requests per second over the cell's duration."""
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        return self.total().slo_hits / duration_s

    # -- metrics export ------------------------------------------------------
    def publish(self, registry, prefix: str = "traffic") -> None:
        """Write the ledger as ``<prefix>/*`` metrics (deterministic order)."""
        for name in sorted(self.per_fn):
            entry = self.per_fn[name]
            base = f"{prefix}/{name}"
            registry.counter(f"{base}/requests").incr(entry.requests)
            registry.counter(f"{base}/cold_starts").incr(entry.cold_starts)
            registry.counter(f"{base}/warm_starts").incr(entry.warm_starts)
            registry.counter(f"{base}/slo_hits").incr(entry.slo_hits)
            registry.gauge(f"{base}/cold_penalty_s").add(entry.cold_penalty_s)
            registry.gauge(f"{base}/wasted_warm_pod_s").add(entry.wasted_warm_pod_s)
            registry.gauge(f"{base}/wasted_warm_cpu_s").add(entry.wasted_warm_cpu_s)
            registry.gauge(f"{base}/busy_pod_s").add(entry.busy_pod_s)
        total = self.total()
        registry.counter(f"{prefix}/total/requests").incr(total.requests)
        registry.counter(f"{prefix}/total/cold_starts").incr(total.cold_starts)
        registry.gauge(f"{prefix}/total/wasted_warm_pod_s").add(total.wasted_warm_pod_s)
        registry.gauge(f"{prefix}/total/wasted_warm_cpu_s").add(total.wasted_warm_cpu_s)


#: The ledger fields published per function, split by metric kind — also
#: the row shape :func:`rows_from_registry` reconstructs for the dashboard.
_COUNTER_FIELDS = ("requests", "cold_starts", "warm_starts", "slo_hits")
_GAUGE_FIELDS = (
    "cold_penalty_s",
    "wasted_warm_pod_s",
    "wasted_warm_cpu_s",
    "busy_pod_s",
)


def rows_from_registry(registry, prefix: str = "traffic") -> list[dict]:
    """Reconstruct per-function economics rows from ``<prefix>/*`` metrics.

    The inverse of :meth:`EconomicsLedger.publish`, used by the live
    dashboard: it reads whatever a ledger has published into a node's
    registry and renders it as sorted row dicts — purely a read, so it is
    safe inside the passive observer hook. Functions with no published
    metrics yield no rows; the ``total`` row comes last when present.
    """
    per_fn: dict[str, dict] = {}
    for name in registry.names():
        parts = name.split("/")
        if len(parts) != 3 or parts[0] != prefix:
            continue
        metric = registry.find(name)
        _, fn, field_name = parts
        if field_name in _COUNTER_FIELDS or field_name in _GAUGE_FIELDS:
            row = per_fn.setdefault(fn, {"function": fn})
            row[field_name] = metric.value
    names = sorted(n for n in per_fn if n != "total")
    if "total" in per_fn:
        names.append("total")
    rows = []
    for fn in names:
        row = per_fn[fn]
        requests = row.get("requests", 0)
        slo_hits = row.get("slo_hits", 0)
        if requests:
            row["slo_attainment"] = slo_hits / requests
        rows.append(row)
    return rows
