"""Dataplanes: Knative baseline, gRPC direct mode, S-/D-SPRIGHT, sidecars."""

from .base import (
    Dataplane,
    OverloadError,
    ProxyComponent,
    Request,
    RequestClass,
    ShedError,
)
from .grpc_mode import GrpcDataplane, GrpcParams
from .knative import KnativeDataplane, KnativeParams, nginx_function
from .legs import chain_step_stage, external_arrival, leg_kernel, leg_localhost
from .sidecars import (
    ALL_SIDECARS,
    ENVOY,
    NULL_SIDECAR,
    OF_WATCHDOG,
    QUEUE_PROXY,
    SidecarPod,
    SidecarSpec,
)
from .spright import (
    DSprightDataplane,
    LambdaNicDataplane,
    NicComputeEngine,
    NicComputeModel,
    SprightParams,
    SSprightDataplane,
)

__all__ = [
    "ALL_SIDECARS",
    "Dataplane",
    "DSprightDataplane",
    "ENVOY",
    "GrpcDataplane",
    "GrpcParams",
    "KnativeDataplane",
    "KnativeParams",
    "LambdaNicDataplane",
    "NULL_SIDECAR",
    "NicComputeEngine",
    "NicComputeModel",
    "OF_WATCHDOG",
    "OverloadError",
    "ProxyComponent",
    "QUEUE_PROXY",
    "Request",
    "RequestClass",
    "ShedError",
    "SidecarPod",
    "SidecarSpec",
    "SprightParams",
    "SSprightDataplane",
    "chain_step_stage",
    "external_arrival",
    "leg_kernel",
    "leg_localhost",
    "nginx_function",
]
