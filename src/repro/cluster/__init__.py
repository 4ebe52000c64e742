"""Multi-node clusters: a shared-clock fabric and function placement.

The single-node planes answer "which dataplane wins on one node?"; this
package answers the §3.8 question — what happens when a chain no longer
fits on one node. :func:`build_cluster` puts several workers on one clock,
and :class:`ClusterScheduler` places individual chain functions under CPU
and memory constraints. A :class:`FunctionPlacement` bound to its fabric is
what any :class:`~repro.dataplane.Dataplane` takes to run over the nodes:
the plane's own request path, with its native transport inside a node and
a serialized :meth:`ClusterFabric.transfer` at each node boundary.
"""

from .fabric import (
    ClusterFabric,
    LinkSpec,
    build_cluster,
    decode_wire,
    encode_wire,
)
from .scheduler import (
    POLICIES,
    ClusterScheduler,
    FunctionPlacement,
    NodeDescriptor,
    PlacementError,
    function_core_request,
    function_memory_request,
)

__all__ = [
    "ClusterFabric",
    "ClusterScheduler",
    "FunctionPlacement",
    "LinkSpec",
    "NodeDescriptor",
    "PlacementError",
    "POLICIES",
    "build_cluster",
    "decode_wire",
    "encode_wire",
    "function_core_request",
    "function_memory_request",
]
