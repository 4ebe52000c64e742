"""The request-cloning lab experiment (``spright-repro cloning``).

Two halves:

1. **Analytic validation** — run the stripped-down PS harness
   (:mod:`repro.cloning.lab`) at (load, clone-factor) points in the two
   regimes the oracle has closed forms for, and check the DES mean response
   matches ``T = E[S_min] / (1 - lambda * E[S_min])`` within tolerance.
   Exponential service (cloning helps: E[S_min] = S/d) and deterministic
   service (cloning is waste: E[S_min] = S) bracket the behaviour space.

2. **Plane sweep** — clone factor x plane on the *real* dataplanes, PS
   pods, 16 KB payloads. Every clone pays its plane's dispatch cost
   (descriptor-only for shared-memory SPRIGHT, full marshal for Knative)
   plus the plane's whole per-delivery pipeline, so the measured optimal
   clone factor is plane-dependent: SPRIGHT keeps winning from extra
   clones after Knative's per-clone overhead has erased the min-of-d gain.

Every verdict is printed as a grep-able ``verdict:`` line so CI can gate
on the outcome without parsing tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cloning import LabResult, expected_min_service, run_clone_point
from ..faults import ResiliencePolicy, clone_cost_for_plane
from ..runtime import FunctionSpec
from ..dataplane import RequestClass
from .common import ScenarioResult, build_closed_loop

#: (target PS load, clone factor) validation points per service regime.
VALIDATION_POINTS = {
    "exp": ((0.3, 2), (0.5, 2), (0.5, 3), (0.65, 3)),
    "deterministic": ((0.3, 2), (0.5, 2), (0.65, 3)),
}
VALIDATION_TOLERANCE = 0.05
SERVICE_MEAN = 1e-3  # 1 ms mean service, the lab's time unit

SWEEP_PLANES = ("s-spright", "knative")
SWEEP_CLONE_FACTORS = (1, 2, 3, 4)
SWEEP_REPLICAS = 4
SWEEP_PAYLOAD = 16384  # makes Knative's per-byte marshal cost visible


@dataclass
class CloningLab:
    """Everything the cloning experiment measured."""

    validation: dict[str, list[LabResult]]
    sweep: dict[str, dict[int, ScenarioResult]]
    optimal: dict[str, int] = field(default_factory=dict)

    def regime_ok(self, dist: str) -> bool:
        return all(
            point.within(VALIDATION_TOLERANCE) for point in self.validation[dist]
        )


def run_validation(
    duration: float = 20.0, seed: int = 2022
) -> dict[str, list[LabResult]]:
    """DES vs oracle at every configured (load, d) point, both regimes.

    ``load`` is the utilization of the *equivalent* M/G/1-PS queue
    (``lambda * E[S_min]``), so the arrival rate is derived per point —
    comparing regimes at equal effective load, not equal arrival rate.
    """
    results: dict[str, list[LabResult]] = {}
    for dist, points in VALIDATION_POINTS.items():
        regime: list[LabResult] = []
        for load, clone_factor in points:
            smin = expected_min_service(SERVICE_MEAN, clone_factor, dist)
            lam = load / smin
            regime.append(
                run_clone_point(
                    lam,
                    SERVICE_MEAN,
                    clone_factor,
                    dist=dist,
                    duration=duration,
                    warmup=min(2.0, duration * 0.1),
                    seed=seed,
                )
            )
        results[dist] = regime
    return results


def sweep_function() -> FunctionSpec:
    """The PS function the plane sweep deploys on every plane."""
    return FunctionSpec(
        name="clone-fn",
        service_time=SERVICE_MEAN,
        service_dist="exp",
        service_discipline="ps",
        concurrency=256,
        min_scale=SWEEP_REPLICAS,
        max_scale=SWEEP_REPLICAS,
    )


def sweep_request_class() -> RequestClass:
    return RequestClass(
        name="clone-sweep",
        sequence=["clone-fn"],
        payload_size=SWEEP_PAYLOAD,
        response_size=1024,
    )


def run_plane_sweep(
    duration: float = 6.0,
    seed: int = 2022,
    planes: tuple[str, ...] = SWEEP_PLANES,
    clone_factors: tuple[int, ...] = SWEEP_CLONE_FACTORS,
) -> dict[str, dict[int, ScenarioResult]]:
    """Clone factor x plane on the real dataplanes (closed loop, PS pods)."""
    sweep: dict[str, dict[int, ScenarioResult]] = {}
    for plane in planes:
        cost = clone_cost_for_plane(plane)
        sweep[plane] = {}
        for d in clone_factors:
            policy = ResiliencePolicy(clone_factor=d, clone_cost=cost)
            sweep[plane][d] = build_closed_loop(
                plane,
                [sweep_function()],
                [sweep_request_class()],
                concurrency=4,
                duration=duration,
                scale=0.1,
                seed=seed,
                client_overhead=0.002,
                resilience=policy if policy.enabled() else None,
            ).finish()
    return sweep


def measured_optimum(per_d: dict[int, ScenarioResult]) -> int:
    """The clone factor with the lowest mean response time."""
    return min(per_d, key=lambda d: per_d[d].latency_ms("mean"))


def run_cloning_lab(
    validation_duration: float = 20.0,
    sweep_duration: float = 6.0,
    seed: int = 2022,
) -> CloningLab:
    validation = run_validation(duration=validation_duration, seed=seed)
    sweep = run_plane_sweep(duration=sweep_duration, seed=seed)
    lab = CloningLab(validation=validation, sweep=sweep)
    for plane, per_d in sweep.items():
        lab.optimal[plane] = measured_optimum(per_d)
    return lab


# -- reporting -----------------------------------------------------------------
def format_validation_table(validation: dict[str, list[LabResult]]) -> str:
    lines = [
        "Cloning validation: DES vs M/G/1-PS(S_min) oracle "
        f"(tolerance {VALIDATION_TOLERANCE:.0%})",
        f"{'regime':<14} {'load':>5} {'d':>2} {'jobs':>7} "
        f"{'DES ms':>8} {'oracle ms':>10} {'err %':>6}  pass",
    ]
    for dist, points in validation.items():
        for point in points:
            load = point.lam * expected_min_service(
                SERVICE_MEAN, point.clone_factor, dist
            )
            lines.append(
                f"{dist:<14} {load:>5.2f} {point.clone_factor:>2} "
                f"{point.completed:>7} {point.mean_response * 1e3:>8.4f} "
                f"{point.analytic * 1e3:>10.4f} "
                f"{point.relative_error * 100:>6.2f}  "
                f"{'yes' if point.within(VALIDATION_TOLERANCE) else 'NO'}"
            )
    return "\n".join(lines)


def format_sweep_table(lab: CloningLab) -> str:
    lines = [
        "Clone-factor sweep on real dataplanes "
        f"(exp service, PS pods, {SWEEP_REPLICAS} replicas, "
        f"{SWEEP_PAYLOAD // 1024} KB payload)",
        f"{'plane':<12} " + " ".join(f"{f'd={d} ms':>10}" for d in SWEEP_CLONE_FACTORS)
        + f"  {'optimal d':>9}",
    ]
    for plane, per_d in lab.sweep.items():
        cells = " ".join(
            f"{per_d[d].latency_ms('mean'):>10.3f}" if d in per_d else f"{'-':>10}"
            for d in SWEEP_CLONE_FACTORS
        )
        lines.append(f"{plane:<12} {cells}  {lab.optimal[plane]:>9}")
    return "\n".join(lines)


def format_counters(lab: CloningLab) -> str:
    """Cloning counters from the heaviest SPRIGHT sweep point."""
    plane = lab.sweep.get("s-spright") or next(iter(lab.sweep.values()))
    heaviest = plane[max(plane)]
    counters = heaviest.node.counters.as_dict()
    lines = [f"cloning counters ({heaviest.plane}, d={max(plane)}):"]
    for name in ("clones", "win_clone", "win_primary", "cancelled"):
        lines.append(f"  cloning/{name:<12} {counters.get(f'cloning/{name}', 0):>10}")
    return "\n".join(lines)


def format_verdicts(lab: CloningLab) -> str:
    lines = []
    for dist in VALIDATION_POINTS:
        ok = lab.regime_ok(dist)
        lines.append(
            f"verdict: analytic match ({dist} regime): {'yes' if ok else 'NO'}"
        )
    spright_d = lab.optimal.get("s-spright")
    knative_d = lab.optimal.get("knative")
    if spright_d is not None and knative_d is not None:
        ok = spright_d >= knative_d
        lines.append(
            "verdict: plane-dependent optimal clone factor "
            f"(s-spright d={spright_d} >= knative d={knative_d}): "
            f"{'yes' if ok else 'NO'}"
        )
    return "\n".join(lines)


def format_report(lab: CloningLab) -> str:
    return "\n\n".join(
        [
            format_validation_table(lab.validation),
            format_sweep_table(lab),
            format_counters(lab),
            format_verdicts(lab),
        ]
    )


def run_config(config=None) -> str:
    """Shared CLI/scenario entry point for ``spright-repro cloning``."""
    config = dict(config or {})
    duration = config.get("duration", 20.0)
    lab = run_cloning_lab(
        validation_duration=duration,
        sweep_duration=config.get("sweep_duration", duration * 0.3),
        seed=config.get("seed", 2022),
    )
    return format_report(lab)
