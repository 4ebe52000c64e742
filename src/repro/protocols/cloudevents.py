"""CloudEvents v1.0 event: the attributes every adapted request carries.

The protocol adapter (§3.6) normalizes every inbound protocol into a
CloudEvent before handing the payload to the chain, matching the spec the
serverless ecosystem (Knative eventing included) standardized on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


class CloudEventError(Exception):
    """Missing required attributes."""


@dataclass
class CloudEvent:
    """A CloudEvents v1.0 event with binary payload support."""

    id: str
    source: str
    type: str
    data: bytes = b""
    datacontenttype: str = "application/octet-stream"
    subject: Optional[str] = None
    time: Optional[str] = None
    extensions: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.id or not self.source or not self.type:
            raise CloudEventError("id, source and type are required")
