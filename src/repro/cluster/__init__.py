"""Multi-node cluster dataplane: fabric, function placement, λ-NIC offload.

The single-node planes answer "which dataplane wins on one node?"; this
package answers the §3.8 question — what happens when a chain no longer
fits on one node. :func:`build_cluster` puts several workers on one clock,
:class:`ClusterScheduler` places individual chain functions under CPU and
memory constraints, and :class:`ClusterDataplane` executes the chain with
plane-native costs inside a node and real serialized transfers across the
:class:`ClusterFabric` between nodes.
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
from .chain import PLANE_TAGS, SHM_PLANES, ClusterDataplane

__all__ = [
    "ClusterDataplane",
    "ClusterFabric",
    "ClusterScheduler",
    "FunctionPlacement",
    "LinkSpec",
    "NodeDescriptor",
    "PLANE_TAGS",
    "PlacementError",
    "POLICIES",
    "SHM_PLANES",
    "build_cluster",
    "decode_wire",
    "encode_wire",
    "function_core_request",
    "function_memory_request",
]
