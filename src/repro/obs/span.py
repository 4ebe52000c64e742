"""Causal span tracing: parent/child spans over the simulated request path.

The tracer turns the milestones a request is stamped with
(``Request.mark``) into a span tree: every traced request gets a **root
span** covering its whole lifetime, the gaps between consecutive milestones
become contiguous **phase spans** (children of the root, named after the
milestone that closes them), and dataplanes open explicit child spans
(kernel legs, eBPF program runs, shared-memory ring operations) inside the
current phase. Because phases tile the root exactly, the span tree always
covers the request's wall time. The span tree is the only per-request
timing record; :mod:`repro.stats.tracing` derives waterfalls from it.

Determinism: tracing makes zero RNG draws and schedules zero simulation
events — it only records timestamps the simulation produced anyway — so a
traced run's tables are byte-identical to an untraced run's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore import Environment


#: Milestones that describe discrete events (fault/resilience activity)
#: rather than pipeline progress; they additionally become zero-duration
#: "event" spans parented on the root, so Perfetto shows them as markers.
EVENT_MILESTONES = ("retry:", "hedge:", "breaker:", "crash:", "failed")


@dataclass
class Span:
    """One node of a request's span tree."""

    sid: int
    name: str
    category: str                 # request | phase | leg | ebpf | shm | event
    start: float
    parent: Optional[int]         # parent sid; None for the root
    end: Optional[float] = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0


class _RequestState:
    """Per-request tracer bookkeeping, keyed by the root span's sid."""

    __slots__ = ("root", "phase", "open_spans")

    def __init__(self, root: Span, phase: Span) -> None:
        self.root = root
        self.phase = phase
        self.open_spans: list[Span] = []


class Tracer:
    """Produces span trees for requests; attach via ``Dataplane.submit``."""

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.spans: list[Span] = []        # every span, in creation order
        self._states: dict[int, _RequestState] = {}
        self.requests_started = 0
        self.requests_finished = 0

    # -- span construction ---------------------------------------------------
    def _new_span(
        self, name: str, category: str, start: float, parent: Optional[int]
    ) -> Span:
        span = Span(
            sid=len(self.spans) + 1,
            name=name,
            category=category,
            start=start,
            parent=parent,
        )
        self.spans.append(span)
        return span

    def _span(self, sid: Optional[int]) -> Optional[Span]:
        if sid is None:
            return None
        return self.spans[sid - 1]

    def _state_for(self, request) -> Optional[_RequestState]:
        root = getattr(request, "span", None)
        if root is None:
            return None
        return self._states.get(root.sid)

    # -- request lifecycle ---------------------------------------------------
    def start_request(self, request, name: str, **attrs) -> Span:
        """Open the root span (and the first phase) for a request."""
        root = self._new_span(name, "request", request.created_at, None)
        root.attrs.update(attrs)
        request.span = root
        request.tracer = self
        phase = self._new_span("", "phase", request.created_at, root.sid)
        self._states[root.sid] = _RequestState(root, phase)
        self.requests_started += 1
        return root

    def on_mark(self, request, milestone: str, now: float) -> None:
        """A milestone: close the open phase, open the next one.

        Out-of-order stamps (a milestone earlier than the previous one) are
        clamped to the phase start and flagged ``out_of_order`` (waterfalls
        render them as ``!`` markers); the next phase then begins at the
        clamped boundary so phases stay contiguous and non-overlapping.
        """
        state = self._state_for(request)
        if state is None:
            return
        phase = state.phase
        end = now
        if end < phase.start:
            end = phase.start
            phase.attrs["out_of_order"] = True
        phase.name = milestone
        phase.end = end
        if milestone.startswith(EVENT_MILESTONES):
            marker = self._new_span(milestone, "event", now, state.root.sid)
            marker.end = now
        state.phase = self._new_span("", "phase", end, state.root.sid)

    def begin(self, request, name: str, category: str = "op", **attrs) -> Optional[Span]:
        """Open an explicit child span inside the current phase."""
        state = self._state_for(request)
        if state is None:
            return None
        span = self._new_span(name, category, self.env.now, state.phase.sid)
        span.attrs.update(attrs)
        state.open_spans.append(span)
        return span

    def finish(self, request, span: Optional[Span], **attrs) -> None:
        """Close an explicit span; reparent if its phase closed underneath it.

        Under hedging, two delivery attempts interleave their milestones on
        one request, so a leg span of attempt A can outlive the phase that
        was open when it began. Walking up to the nearest still-containing
        ancestor (ultimately the root, which stays open for the request's
        whole lifetime) preserves the child-within-parent invariant.
        """
        if span is None:
            return
        span.end = self.env.now
        span.attrs.update(attrs)
        state = self._state_for(request)
        if state is not None and span in state.open_spans:
            state.open_spans.remove(span)
        self._reparent(span)

    def _reparent(self, span: Span) -> None:
        parent = self._span(span.parent)
        while (
            parent is not None
            and parent.parent is not None
            and parent.end is not None
            and span.end is not None
            and span.end > parent.end
        ):
            span.parent = parent.parent
            parent = self._span(parent.parent)

    def finish_request(self, request, **attrs) -> None:
        """Close the root span; finalize the trailing phase and orphans."""
        root = getattr(request, "span", None)
        if root is None:
            return
        state = self._states.pop(root.sid, None)
        if state is None:
            return
        now = self.env.now
        root.end = now
        root.attrs.update(attrs)
        phase = state.phase
        if phase.end is None:
            if now <= phase.start and not phase.name:
                # Zero-length unnamed tail (completion coincided with the
                # final milestone): not a real phase, exclude from exports.
                phase.end = phase.start
                phase.attrs["dropped"] = True
            else:
                phase.name = phase.name or "tail"
                phase.end = now
        for span in state.open_spans:
            # Abandoned mid-flight (cancelled hedge, horizon cut): close at
            # the root's end so the tree stays well-formed, and say so.
            span.end = now
            span.attrs["cancelled"] = True
            self._reparent(span)
        state.open_spans.clear()
        self.requests_finished += 1

    # -- views ---------------------------------------------------------------
    def finished_spans(self) -> list[Span]:
        """Exportable spans: closed, not dropped (in creation order)."""
        return [
            span
            for span in self.spans
            if span.end is not None and not span.attrs.get("dropped")
        ]

    def roots(self) -> list[Span]:
        return [span for span in self.finished_spans() if span.parent is None]

    def children_index(self) -> dict[int, list[Span]]:
        """parent sid -> direct children, over finished spans."""
        index: dict[int, list[Span]] = {}
        for span in self.finished_spans():
            if span.parent is not None:
                index.setdefault(span.parent, []).append(span)
        return index


def coverage(root: Span, children: dict[int, list[Span]]) -> float:
    """Fraction of the root's wall time tiled by its phase children."""
    duration = root.duration
    if duration <= 0:
        return 1.0
    covered = 0.0
    for child in children.get(root.sid, ()):
        if child.category != "phase" or child.end is None:
            continue
        lo = max(child.start, root.start)
        hi = min(child.end, root.end if root.end is not None else child.end)
        if hi > lo:
            covered += hi - lo
    return covered / duration
