"""SPRIGHT: the paper's contribution — gateway, SPROXY/EPROXY, DFR, security."""

from .adapter import (
    AdapterError,
    AdapterHookPoint,
    CoapAdapter,
    HttpAdapter,
    MqttAdapter,
    MqttSessionTable,
    ProtocolAdapter,
)
from .chain import (
    ChainTransport,
    RingTransport,
    SpinCharger,
    SprightChainRuntime,
    SprightMessage,
    SprightParams,
    SproxyTransport,
)
from .lambda_nic import LambdaNicDataplane
from .plane import DSprightDataplane, SSprightDataplane
from .routing import DfrRoutingTable, GATEWAY_INSTANCE_ID, RoutingError
from .security import SecurityDomain, filter_key
from .sockets import SproxySocket
from .xdp_accel import NicComputeEngine, NicComputeModel, XdpAccelerator

__all__ = [
    "AdapterError",
    "AdapterHookPoint",
    "ChainTransport",
    "CoapAdapter",
    "DfrRoutingTable",
    "DSprightDataplane",
    "GATEWAY_INSTANCE_ID",
    "HttpAdapter",
    "LambdaNicDataplane",
    "MqttAdapter",
    "MqttSessionTable",
    "NicComputeEngine",
    "NicComputeModel",
    "ProtocolAdapter",
    "RingTransport",
    "RoutingError",
    "SecurityDomain",
    "SpinCharger",
    "SprightChainRuntime",
    "SprightMessage",
    "SprightParams",
    "SproxySocket",
    "SproxyTransport",
    "SSprightDataplane",
    "XdpAccelerator",
    "filter_key",
]
