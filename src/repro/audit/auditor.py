"""Per-request overhead counting, aggregated into paper-style audit tables."""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..mem import DESCRIPTOR_SIZE

#: Bytes crossing sockets/rings per within-chain hop in SPRIGHT — the
#: context for Table 2's zero rows: only this versioned, generation-tagged
#: descriptor moves between functions, never the payload. (Was 16 in the
#: paper's v1 layout; v2 adds the version header and the ABA generation.)
DESCRIPTOR_WIRE_BYTES = DESCRIPTOR_SIZE


class OverheadKind(enum.Enum):
    """The six overhead classes audited in Tables 1 and 2."""

    COPY = "# of copies"
    CONTEXT_SWITCH = "# of context switches"
    INTERRUPT = "# of interrupts"
    PROTOCOL_PROCESSING = "# of protocol processing tasks"
    SERIALIZATION = "# of serialization"
    DESERIALIZATION = "# of deserialization"


class Stage(enum.Enum):
    """Data-pipeline steps ①-⑤ from Fig. 1 of the paper.

    ①: client -> broker/front-end through the ingress gateway.
    ②: queue/registration at the broker/front-end.
    ③: broker/front-end -> head function.
    ④: function processing (incl. sidecar traversal) / fn-to-fn with DFR.
    ⑤: broker/front-end -> next function.
    """

    STEP_1 = "①"
    STEP_2 = "②"
    STEP_3 = "③"
    STEP_4 = "④"
    STEP_5 = "⑤"


EXTERNAL_STAGES = (Stage.STEP_1, Stage.STEP_2)
CHAIN_STAGES = (Stage.STEP_3, Stage.STEP_4, Stage.STEP_5)


@dataclass
class RequestTrace:
    """Counts of every audited operation performed for one request."""

    counts: dict = field(
        default_factory=lambda: defaultdict(lambda: defaultdict(int))
    )
    request_id: int = 0
    completed: bool = False  # set when the traced request finishes

    def count(self, stage: Stage, kind: OverheadKind, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("amount must be non-negative")
        self.counts[stage][kind] += amount

    def get(self, stage: Stage, kind: OverheadKind) -> int:
        return self.counts[stage][kind]

    def total(self, kind: OverheadKind, stages: Optional[Iterable[Stage]] = None) -> int:
        chosen = list(Stage) if stages is None else list(stages)
        return sum(self.counts[stage][kind] for stage in chosen)


@dataclass
class AuditTable:
    """A Table-1/2-shaped summary: per-step, external, chain, total counts."""

    per_stage: dict
    name: str = ""

    def stage(self, stage: Stage, kind: OverheadKind) -> int:
        return self.per_stage[stage][kind]

    def external_total(self, kind: OverheadKind) -> int:
        return sum(self.per_stage[stage][kind] for stage in EXTERNAL_STAGES)

    def chain_total(self, kind: OverheadKind) -> int:
        return sum(self.per_stage[stage][kind] for stage in CHAIN_STAGES)

    def total(self, kind: OverheadKind) -> int:
        return self.external_total(kind) + self.chain_total(kind)

    def row(self, kind: OverheadKind) -> dict:
        """One table row in the paper's column layout."""
        return {
            "①": self.stage(Stage.STEP_1, kind),
            "②": self.stage(Stage.STEP_2, kind),
            "external": self.external_total(kind),
            "③": self.stage(Stage.STEP_3, kind),
            "④": self.stage(Stage.STEP_4, kind),
            "⑤": self.stage(Stage.STEP_5, kind),
            "within chain": self.chain_total(kind),
            "total": self.total(kind),
        }

    def render(self) -> str:
        """Plain-text rendering in the paper's row order."""
        lines = [f"Audit: {self.name}"]
        header = f"{'overhead':34s} {'①':>4s} {'②':>4s} {'ext':>4s} {'③':>4s} {'④':>4s} {'⑤':>4s} {'chain':>6s} {'total':>6s}"
        lines.append(header)
        for kind in OverheadKind:
            row = self.row(kind)
            lines.append(
                f"{kind.value:34s} {row['①']:4d} {row['②']:4d} {row['external']:4d} "
                f"{row['③']:4d} {row['④']:4d} {row['⑤']:4d} "
                f"{row['within chain']:6d} {row['total']:6d}"
            )
        return "\n".join(lines)


class Auditor:
    """Collects request traces and reduces them to an :class:`AuditTable`.

    The paper audits the *minimum* per-request overhead; we therefore take
    the per-stage minimum across traces (implementation noise such as extra
    same-core context switches can only add counts, never remove them).
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.traces: list[RequestTrace] = []

    def new_trace(self) -> RequestTrace:
        trace = RequestTrace(request_id=len(self.traces) + 1)
        self.traces.append(trace)
        return trace

    def table(self) -> AuditTable:
        """Reduce completed traces (in-flight requests have partial counts)."""
        traces = [trace for trace in self.traces if trace.completed]
        if not traces:
            traces = self.traces  # fall back: caller audited manually
        if not traces:
            raise ValueError("no traces were recorded")
        per_stage: dict = {
            stage: {kind: None for kind in OverheadKind} for stage in Stage
        }
        for trace in traces:
            for stage in Stage:
                for kind in OverheadKind:
                    value = trace.get(stage, kind)
                    current = per_stage[stage][kind]
                    if current is None or value < current:
                        per_stage[stage][kind] = value
        finalized = {
            stage: {kind: int(per_stage[stage][kind] or 0) for kind in OverheadKind}
            for stage in Stage
        }
        return AuditTable(per_stage=finalized, name=self.name)
