"""The Online Boutique workload (§4.2.1, Figs 9/10, Tables 3 and 5).

Ten microservices and the six call sequences of Table 3, with Locust-style
weights and think times. Two ports exist, as in the paper: the Go/gRPC
functions used by the Knative and gRPC modes (heavy language-runtime and
marshalling overhead per invocation) and the C port used by SPRIGHT (the
same application logic without the runtime baggage).
"""

from __future__ import annotations

import json

from ..dataplane.base import RequestClass
from ..runtime import FunctionResult, FunctionSpec

# Function index -> name, following Table 3's legend.
SERVICES = {
    1: "frontend",
    2: "currency",
    3: "product-catalog",
    4: "cart",
    5: "recommendation",
    6: "shipping",
    7: "checkout",
    8: "payment",
    9: "email",
    10: "ad",
}

# Pure application service time per invocation (seconds) — what the C port
# costs. Chosen so the full mix lands near the paper's ~3.5 cores for
# S-SPRIGHT functions at 25K users (§4.2.1).
SERVICE_TIMES = {
    "frontend": 80e-6,
    "currency": 25e-6,
    "product-catalog": 45e-6,
    "cart": 55e-6,
    "recommendation": 70e-6,
    "shipping": 45e-6,
    "checkout": 120e-6,
    "payment": 65e-6,
    "email": 55e-6,
    "ad": 35e-6,
}

# Go + gRPC server overhead per invocation (critical-path, background).
GO_RUNTIME_PATH = 400e-6
GO_RUNTIME_BG = 1800e-6

# Table 3 call sequences (function indexes).
CALL_SEQUENCES = {
    "Ch-1": [1, 2, 1, 3, 1, 4, 1, 2, 1, 10, 1],
    "Ch-2": [1],
    "Ch-3": [1, 3, 1, 2, 1, 4, 1, 2, 1, 5, 1, 4, 1, 10, 1],
    "Ch-4": [1, 2, 1, 4, 1, 5, 1, 6, 1, 2, 1, 3, 1, 2, 1],
    "Ch-5": [1, 3, 1, 4, 1],
    "Ch-6": [1, 7, 4, 7, 3, 7, 2, 7, 6, 7, 2, 7, 8, 7, 6, 7, 4, 7, 9, 7, 1, 5, 1, 2, 1],
}

# Locust task weights from the upstream boutique locustfile.
MIX_WEIGHTS = {
    "Ch-1": 1.0,   # index
    "Ch-2": 2.0,   # setCurrency
    "Ch-3": 10.0,  # browseProduct
    "Ch-4": 3.0,   # viewCart
    "Ch-5": 2.0,   # addToCart
    "Ch-6": 1.0,   # checkout
}

PAYLOAD_SIZES = {
    "Ch-1": 128,
    "Ch-2": 64,
    "Ch-3": 128,
    "Ch-4": 96,
    "Ch-5": 256,
    "Ch-6": 512,
}

RESPONSE_SIZES = {
    "Ch-1": 8192,
    "Ch-2": 256,
    "Ch-3": 4096,
    "Ch-4": 2048,
    "Ch-5": 512,
    "Ch-6": 1024,
}


def _catalog_behavior(payload: bytes, context: dict) -> FunctionResult:
    """Product catalog: serve items from an in-memory table."""
    catalog = context.setdefault(
        "catalog",
        {f"sku-{index}": {"price_usd": 9 + index} for index in range(32)},
    )
    body = json.dumps(sorted(catalog)[:8]).encode()
    return FunctionResult(payload=body)


def _cart_behavior(payload: bytes, context: dict) -> FunctionResult:
    """Cart: session carts live in the in-memory DB of Fig 8(a)."""
    from .kvstore import shared_store

    store = shared_store(context, "cart-db")
    session = payload[:8].hex() or "anonymous"
    current, get_cost = store.get(f"cart:{session}")
    items = (json.loads(current) if current else []) + [len(payload)]
    if len(items) > 64:
        items = items[-32:]
    put_cost = store.put(f"cart:{session}", json.dumps(items).encode())
    return FunctionResult(
        payload=json.dumps({"items": len(items)}).encode(),
        extra_service_time=get_cost + put_cost,
    )


def _default_behavior(payload: bytes, context: dict) -> FunctionResult:
    return FunctionResult(payload=payload)


_BEHAVIORS = {
    "product-catalog": _catalog_behavior,
    "cart": _cart_behavior,
}


def spright_functions(concurrency: int = 32) -> list[FunctionSpec]:
    """The C port: application service time only (§3.8's porting)."""
    return [
        FunctionSpec(
            name=name,
            service_time=SERVICE_TIMES[name],
            service_time_cv=0.3,
            concurrency=concurrency,
            behavior=_BEHAVIORS.get(name, _default_behavior),
        )
        for name in SERVICES.values()
    ]


def go_grpc_functions(concurrency: int = 32) -> list[FunctionSpec]:
    """The Go/gRPC port used by the Knative and gRPC modes."""
    return [
        FunctionSpec(
            name=name,
            service_time=SERVICE_TIMES[name],
            service_time_cv=0.3,
            concurrency=concurrency,
            behavior=_BEHAVIORS.get(name, _default_behavior),
            runtime_overhead_path=GO_RUNTIME_PATH,
            runtime_overhead_bg=GO_RUNTIME_BG,
        )
        for name in SERVICES.values()
    ]


def request_classes() -> list[RequestClass]:
    """Table 3 as request classes (sequences resolved to function names)."""
    classes = []
    for chain_name, indexes in CALL_SEQUENCES.items():
        classes.append(
            RequestClass(
                name=chain_name,
                sequence=[SERVICES[index] for index in indexes],
                payload_size=PAYLOAD_SIZES[chain_name],
                response_size=RESPONSE_SIZES[chain_name],
                weight=MIX_WEIGHTS[chain_name],
            )
        )
    return classes


def locust_think_time(node) -> float:
    """Locust's ``wait_time = between(1, 10)`` from the boutique repo."""
    return node.rng.uniform("boutique/think", 1.0, 10.0)

