"""Traced runs: span trees, OpenMetrics, and CPU flamegraphs for one plane.

``spright-repro trace`` runs a short workload with the full observability
stack on — causal span tracing, the metrics registry mirroring every audited
kernel op, and the simulated-CPU profiler — then reports:

* span statistics and **coverage**: the fraction of each request's wall time
  tiled by its phase spans (the acceptance bar is >= 95%; by construction
  phases are contiguous, so completed requests sit at ~100%);
* the **reconciliation table**: per :class:`~repro.audit.OverheadKind`, the
  registry's ``ops/<plane>/<kind>`` counter against the sum over every
  audit :class:`~repro.audit.RequestTrace` — equal *exactly*, because both
  are incremented by the same ``KernelOps`` call under the same condition;
* the profiler's hottest stacks.

Artifacts (Chrome/Perfetto ``trace_event`` JSON, OpenMetrics text, folded
flamegraph stacks) are written by :func:`write_trace_artifacts`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..audit import OverheadKind
from ..obs import Observability, coverage, default_observe, set_default_observe
from ..stats import format_table
from .boutique_exp import build_boutique
from .motion_exp import run_motion

WORKLOADS = ("boutique", "motion")


@dataclass
class TracedRun:
    """One traced run and everything its report needs."""

    plane: str
    workload: str
    duration: float
    obs: Observability
    recorder: object
    node: object
    plane_obj: object
    auditor: Optional[object] = None

    # -- span-tree views -----------------------------------------------------
    def coverages(self) -> list[float]:
        """Per-request phase coverage of the root span's wall time."""
        tracer = self.obs.tracer
        if tracer is None:
            return []
        children = tracer.children_index()
        return [coverage(root, children) for root in tracer.roots()]

    def reconciliation(self) -> list[tuple[str, int, int, bool]]:
        """(kind, registry count, audit-trace sum, exact match) per kind."""
        if self.auditor is None:
            return []
        plane_key = self.plane_obj.plane
        rows = []
        for kind in OverheadKind:
            metric = self.obs.registry.find(f"ops/{plane_key}/{kind.name.lower()}")
            registry_count = int(metric.value) if metric is not None else 0
            audited = sum(
                trace.total(kind) for trace in self.auditor.traces
            )
            rows.append((kind.name.lower(), registry_count, audited, registry_count == audited))
        return rows


def run_traced(
    plane: str = "s-spright",
    workload: str = "boutique",
    scale: float = 0.05,
    duration: float = 10.0,
    seed: int = 2022,
) -> TracedRun:
    """Run one (plane, workload) with tracing + profiling forced on.

    The process-wide observe defaults are saved and restored, so a traced
    run in the middle of a larger program does not leak tracing into later
    experiments.
    """
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    saved = default_observe()
    set_default_observe(trace=True, profile=True)
    try:
        if workload == "boutique":
            result = build_boutique(plane, scale, duration, seed, audit=True).finish()
        else:
            result = run_motion(plane, duration=duration, seed=seed)
    finally:
        set_default_observe(trace=saved[0], profile=saved[1])
    run = TracedRun(
        plane=plane,
        workload=workload,
        duration=duration,
        obs=result.node.obs,
        recorder=result.recorder,
        node=result.node,
        plane_obj=result.plane_obj,
        auditor=result.auditor,
    )
    _record_latency_histogram(run)
    return run


def _record_latency_histogram(run: TracedRun) -> None:
    """Post-hoc: fold the recorder's samples into a registry histogram."""
    histogram = run.obs.registry.histogram("latency/request_seconds")
    for latency in run.recorder.all_latencies():
        histogram.observe(latency)


def format_trace_report(run: TracedRun) -> str:
    """The ``spright-repro trace`` report: spans, coverage, reconciliation."""
    tracer = run.obs.tracer
    profiler = run.obs.profiler
    sections = []

    rows = [
        ["plane", run.plane],
        ["workload", run.workload],
        ["duration (s)", run.duration],
        ["requests traced", tracer.requests_started if tracer else 0],
        ["requests finished", tracer.requests_finished if tracer else 0],
        ["spans", len(tracer.finished_spans()) if tracer else 0],
    ]
    covs = run.coverages()
    if covs:
        rows.append(["coverage min", f"{min(covs):.4f}"])
        rows.append(["coverage mean", f"{sum(covs) / len(covs):.4f}"])
        rows.append(["coverage >= 0.95", str(min(covs) >= 0.95)])
    sections.append(format_table(["metric", "value"], rows, title="Traced run"))

    reconciliation = run.reconciliation()
    if reconciliation:
        sections.append(
            format_table(
                ["overhead kind", "registry ops/*", "audit traces", "exact"],
                [
                    [kind, registry_count, audited, "yes" if match else "NO"]
                    for kind, registry_count, audited, match in reconciliation
                ],
                title=f"OpenMetrics <-> audit reconciliation ({run.plane_obj.plane})",
            )
        )

    if profiler is not None and profiler.samples:
        sections.append(
            format_table(
                ["stack", "seconds"],
                [
                    [stack, f"{seconds:.6f}"]
                    for stack, seconds in profiler.top_stacks(10)
                ],
                title="Hottest simulated-CPU stacks",
            )
        )
    return "\n\n".join(sections)


def write_trace_artifacts(run: TracedRun, directory) -> list:
    """Write trace/metrics/flamegraph artifacts; returns written paths."""
    from ..obs import export

    basename = f"{run.plane_obj.plane}-{run.workload}"
    return export.write_artifacts(
        directory,
        tracer=run.obs.tracer,
        registry=run.obs.registry,
        profiler=run.obs.profiler,
        basename=basename,
    )


def run_config(config=None) -> str:
    """Shared CLI/scenario entry point for ``spright-repro trace``."""
    config = dict(config or {})
    run = run_traced(
        plane=config.get("plane", "s-spright"),
        workload=config.get("workload", "boutique"),
        scale=config.get("scale", 0.1),
        duration=config.get("duration", 10.0),
        seed=config.get("seed", 2022),
    )
    report = format_trace_report(run)
    out = config.get("out")
    if out:
        from pathlib import Path

        paths = write_trace_artifacts(run, Path(out))
        report += "\n\nArtifacts:\n" + "\n".join(f"  {path}" for path in paths)
    return report
