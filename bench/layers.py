"""Fold a cProfile of ``node.run`` into the simulator's layers.

Self time is charged to the layer of the module that defines the function:
``src/repro/<package>/...`` maps through :data:`PACKAGE_LAYERS`, with
``kernel/ebpf`` split out of ``kernel``. C builtins and stdlib frames belong
to no layer of their own; their self time is charged to the layer of the
code that called them, split by pstats' per-caller times and followed
through chains of non-repro frames. What still has no repro caller (the
profiler's own bookkeeping) is ``other``.
"""

from __future__ import annotations

import os
import pstats
from typing import Optional

LAYERS = (
    "simcore",
    "kernel",
    "ebpf",
    "mem",
    "protocols",
    "dataplane",
    "runtime",
    "obs",
    "faults",
    "recovery",
    "workloads",
    "stats",
    "audit",
)

#: ``src/repro/<first path part>`` -> layer. Packages without a layer of
#: their own go to the layer whose work they do: the multi-node cluster
#: path is a dataplane, the cloning lab is resilience (faults), and the
#: experiment, scenario and traffic drivers plus the top-level entry
#: modules generate and shape load (workloads).
PACKAGE_LAYERS = {
    "simcore": "simcore",
    "kernel": "kernel",
    "mem": "mem",
    "protocols": "protocols",
    "dataplane": "dataplane",
    "cluster": "dataplane",
    "runtime": "runtime",
    "obs": "obs",
    "faults": "faults",
    "cloning": "faults",
    "recovery": "recovery",
    "workloads": "workloads",
    "traffic": "workloads",
    "experiments": "workloads",
    "scenario": "workloads",
    "stats": "stats",
    "audit": "audit",
    "__init__.py": "workloads",
    "bench.py": "workloads",
    "cli.py": "workloads",
}

#: Public, non-generator entry points whose cProfile ``ncalls`` are exact
#: per-layer work counts: metric -> [(path under src/repro, function name)].
COUNTED_CALLS = {
    "kernel.bundles": [("kernel/ops.py", "commit")],
    "ebpf.runs": [("kernel/ebpf/vm.py", "run")],
    "mem.ops": [
        ("mem/pool.py", "alloc"),
        ("mem/pool.py", "free"),
        ("mem/pool.py", "resolve_descriptor"),
    ],
    "protocols.encodes": [
        ("protocols/http2.py", "encode_grpc_request"),
        ("protocols/http1.py", "encode_request"),
        ("protocols/http1.py", "encode_response"),
    ],
}


def layer_of(relative: str) -> str:
    """The layer of a module given by its path under ``src/repro``."""
    if relative.startswith("kernel/ebpf/"):
        return "ebpf"
    return PACKAGE_LAYERS[relative.split("/", 1)[0]]


class Fold:
    """Per-layer self time and exact call counts from one ``pstats.Stats``."""

    def __init__(self, stats: pstats.Stats, package_dir: str) -> None:
        self._raw = stats.stats
        self._prefix = os.path.join(os.path.realpath(package_dir), "")
        self._relative: dict = {}
        self._shares_of: dict = {}
        self.seconds = {layer: 0.0 for layer in LAYERS + ("other",)}
        for func, (_, _, self_time, _, callers) in self._raw.items():
            own = self._layer(func)
            if own is not None:
                self.seconds[own] += self_time
                continue
            for caller, (_, _, caller_time, _) in callers.items():
                for layer, weight in self._caller_shares(caller, frozenset({func})).items():
                    self.seconds[layer] += caller_time * weight
            if not callers:
                self.seconds["other"] += self_time

    @property
    def total(self) -> float:
        return sum(self.seconds.values())

    def shares(self) -> dict:
        total = self.total or 1.0
        return {layer: seconds / total for layer, seconds in self.seconds.items()}

    def calls(self, metric: str) -> int:
        wanted = set(COUNTED_CALLS[metric])
        return sum(
            entry[1]
            for func, entry in self._raw.items()
            if (self._relative_of(func), func[2]) in wanted
        )

    def _relative_of(self, func) -> Optional[str]:
        """The function's module path under ``src/repro``, or None."""
        filename = func[0]
        if filename not in self._relative:
            path = os.path.realpath(filename)
            self._relative[filename] = (
                path[len(self._prefix):].replace(os.sep, "/")
                if path.startswith(self._prefix)
                else None
            )
        return self._relative[filename]

    def _layer(self, func) -> Optional[str]:
        relative = self._relative_of(func)
        return layer_of(relative) if relative is not None else None

    def _caller_shares(self, func, visiting: frozenset) -> dict:
        """How ``func``'s work divides across layers, by who called it."""
        own = self._layer(func)
        if own is not None:
            return {own: 1.0}
        if func in visiting:
            return {"other": 1.0}
        cached = self._shares_of.get(func)
        if cached is not None:
            return cached
        callers = self._raw.get(func, (0, 0, 0.0, 0.0, {}))[4]
        weights = {caller: entry[2] for caller, entry in callers.items()}
        if not any(weights.values()):
            weights = {caller: float(entry[1]) for caller, entry in callers.items()}
        total = sum(weights.values())
        shares: dict = {}
        if total <= 0:
            shares = {"other": 1.0}
        else:
            for caller, weight in weights.items():
                for layer, part in self._caller_shares(caller, visiting | {func}).items():
                    shares[layer] = shares.get(layer, 0.0) + part * weight / total
        self._shares_of[func] = shares
        return shares
