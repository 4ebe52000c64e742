"""Per-request timing views over a traced request's span tree.

A traced request (``node.obs.enable_tracing()``) owns a root span whose
*phase* children tile its lifetime, one per milestone (ingress, broker/
gateway, per-function delivery and completion, response), plus zero-
duration *event* children for fault/resilience activity. These helpers
take one request's root and its direct children (``Tracer.children_index()
[root.sid]``, any order) and answer "where did the milliseconds go?" —
service vs dataplane time, an ASCII waterfall, and the dashboard's rows.

The tracer already clamps out-of-order stamps (a milestone earlier than
the previous one) to a zero-duration phase flagged ``out_of_order``; the
views render those as ``!`` markers, never as bars.
"""

from __future__ import annotations

from typing import Sequence


def _phases(spans: Sequence) -> list:
    """The closed phase spans, in timeline order."""
    return sorted(
        (
            span
            for span in spans
            if span.category == "phase" and span.end is not None
        ),
        key=lambda span: (span.start, span.sid),
    )


def _end_offset(root, phases: list) -> float:
    """Seconds from the root's start to the end of its last phase."""
    last = phases[-1]
    return last.start + last.duration - root.start


def service_time(spans: Sequence) -> float:
    """Total time inside function service (deliver:* -> served:* pairs)."""
    total = 0.0
    deliveries: dict[str, list[float]] = {}
    for span in _phases(spans):
        if span.name.startswith("deliver:"):
            deliveries.setdefault(span.name.split(":", 1)[1], []).append(span.end)
        elif span.name.startswith("served:"):
            stack = deliveries.get(span.name.split(":", 1)[1])
            if stack:
                total += span.end - stack.pop(0)
    return total


def overhead_time(root, spans: Sequence) -> float:
    """Everything that is not function service: the dataplane's share."""
    return root.duration - service_time(spans)


def waterfall(root, spans: Sequence, width: int = 50) -> str:
    """ASCII waterfall of one request's phases."""
    phases = _phases(spans)
    if not phases:
        return "(empty timeline)"
    total = _end_offset(root, phases)
    if total <= 0:
        return "(zero-duration timeline)"
    lines = []
    for span in phases:
        offset = int((span.start - root.start) / total * width)
        if span.attrs.get("out_of_order"):
            # Not a real leg: render an explicit marker, never a fake bar.
            bar = " " * offset + "!"
            lines.append(
                f"{span.name:20s} {bar:<{width + 2}s} "
                f"{span.duration * 1e6:9.1f} us (out-of-order)"
            )
            continue
        length = max(1, int(span.duration / total * width))
        bar = " " * offset + "#" * length
        lines.append(
            f"{span.name:20s} {bar:<{width + 2}s} {span.duration * 1e6:9.1f} us"
        )
    lines.append(f"{'total':20s} {'':{width + 2}s} {total * 1e6:9.1f} us")
    return "\n".join(lines)


def waterfall_rows(root, spans: Sequence) -> list[dict]:
    """The waterfall as structured rows — the SSE dashboard's wire shape.

    Each phase row carries what :func:`waterfall` draws: name, start
    offset and duration (seconds, relative to the root's start), the
    fraction-of-total geometry for drawing bars, and the marker — ``#``
    for a real leg, ``!`` for a clamped out-of-order stamp (a client must
    never render a fake bar for those). Event spans (fault injections,
    retries, hedges) follow as zero-width ``!`` rows of kind ``event``, so
    the live view shows resilience activity inline with the legs.
    """
    phases = _phases(spans)
    rows = []
    total = _end_offset(root, phases) if phases else 0.0
    for span in phases:
        offset = span.start - root.start
        out_of_order = bool(span.attrs.get("out_of_order"))
        rows.append(
            {
                "name": span.name,
                "kind": "phase",
                "start_s": offset,
                "duration_s": span.duration,
                "offset_frac": (offset / total) if total > 0 else 0.0,
                "width_frac": (span.duration / total) if total > 0 else 0.0,
                "out_of_order": out_of_order,
                "marker": "!" if out_of_order else "#",
            }
        )
    total = root.duration
    events = sorted(
        (span for span in spans if span.category == "event"),
        key=lambda span: (span.start, span.sid),
    )
    for span in events:
        offset = span.start - root.start
        rows.append(
            {
                "name": span.name,
                "kind": "event",
                "start_s": offset,
                "duration_s": 0.0,
                "offset_frac": (offset / total) if total > 0 else 0.0,
                "width_frac": 0.0,
                "out_of_order": False,
                "marker": "!",
            }
        )
    return rows
