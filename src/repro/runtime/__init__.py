"""Orchestration substrate: node, specs, pods, kubelet, autoscaler, health."""

from .autoscaler import Autoscaler, AutoscalerPolicy
from .health import (
    HealthProber,
    ProbeKind,
    ProbePolicy,
    VerticalPodScaler,
    VerticalScalePolicy,
)
from .kubelet import Deployment, Kubelet, desired_scale_for_concurrency
from .metrics_server import MetricsServer, PodMetrics
from .node import WorkerNode
from .pod import Pod, PodPhase
from .spec import (
    ChainSpec,
    DEFAULT_TOPIC,
    ENTRY,
    FunctionResult,
    FunctionSpec,
    RESPONSE,
    echo_behavior,
    sequential_chain,
)

__all__ = [
    "Autoscaler",
    "AutoscalerPolicy",
    "ChainSpec",
    "HealthProber",
    "ProbeKind",
    "ProbePolicy",
    "VerticalPodScaler",
    "VerticalScalePolicy",
    "DEFAULT_TOPIC",
    "Deployment",
    "ENTRY",
    "FunctionResult",
    "FunctionSpec",
    "Kubelet",
    "MetricsServer",
    "Pod",
    "PodMetrics",
    "PodPhase",
    "RESPONSE",
    "WorkerNode",
    "desired_scale_for_concurrency",
    "echo_behavior",
    "sequential_chain",
]
