"""repro.traffic — fleet-scale trace-driven traffic + keep-alive policy lab.

Three layers:

* :mod:`~repro.traffic.arrivals` — lazy, restartable arrival processes
  (MMPP/bursty, heavy-tailed, diurnally modulated, Azure-style synthetic
  fleet with Zipf popularity) on named derived RNG streams;
* :mod:`~repro.traffic.keepalive` — keep-alive / pre-warm policies (fixed
  window, KPA baseline, hybrid histogram, pinned min-scale) evaluated by
  the fleet simulator;
* :mod:`~repro.traffic.economics` + :mod:`~repro.traffic.fleet` — cold-start
  economics accounting and the multiprocessing (plane x policy) cell
  runner behind ``spright-repro traffic``.
"""

from .arrivals import (
    Arrival,
    ArrivalSource,
    FleetParams,
    HeavyTailSource,
    MmppSource,
    ModulatedSource,
    SyntheticFleet,
    zipf_weights,
)
from .economics import (
    EconomicsLedger,
    FunctionEconomics,
    SloPolicy,
)
from .fleet import (
    PLANE_PROFILES,
    CellResult,
    CellSpec,
    PlaneProfile,
    build_specs,
    publish_results,
    run_cells,
    simulate_cell,
)
from .keepalive import (
    POLICIES,
    FixedWindowKeepAlive,
    HistogramKeepAlive,
    KeepAlivePolicy,
    KpaKeepAlive,
    PinnedKeepAlive,
    WarmPlan,
    make_policy,
)

__all__ = [
    "Arrival",
    "ArrivalSource",
    "CellResult",
    "CellSpec",
    "EconomicsLedger",
    "FixedWindowKeepAlive",
    "FleetParams",
    "FunctionEconomics",
    "HeavyTailSource",
    "HistogramKeepAlive",
    "KeepAlivePolicy",
    "KpaKeepAlive",
    "MmppSource",
    "ModulatedSource",
    "PLANE_PROFILES",
    "POLICIES",
    "PinnedKeepAlive",
    "PlaneProfile",
    "SloPolicy",
    "SyntheticFleet",
    "WarmPlan",
    "build_specs",
    "make_policy",
    "publish_results",
    "run_cells",
    "simulate_cell",
    "zipf_weights",
]
