"""From-scratch discrete-event simulation core.

Public surface::

    env = Environment()
    cpu = CpuSet(env, cores=40)

    def worker(env):
        yield env.timeout(1.0)
        yield cpu.execute(0.002, tag="fn")

    env.process(worker(env))
    env.run(until=10.0)
"""

from .environment import Environment, NORMAL, URGENT
from .errors import (
    DeliveryError,
    EmptySchedule,
    Interrupt,
    SimulationError,
    StopSimulation,
)
from .events import AllOf, AnyOf, Condition, ConditionValue, Event, Timeout
from .process import Process
from .resources import (
    Resource,
    ResourceRequest,
    Store,
    StoreGet,
    StorePut,
)
from .cpu import Charge, CpuAccounting, CpuSet
from .ps import PsJob, PsServer
from .rng import RandomStreams, derive_stream_seed

__all__ = [
    "AllOf",
    "AnyOf",
    "Charge",
    "Condition",
    "ConditionValue",
    "CpuAccounting",
    "CpuSet",
    "DeliveryError",
    "EmptySchedule",
    "Environment",
    "Event",
    "Interrupt",
    "NORMAL",
    "Process",
    "PsJob",
    "PsServer",
    "RandomStreams",
    "Resource",
    "ResourceRequest",
    "SimulationError",
    "StopSimulation",
    "Store",
    "StoreGet",
    "StorePut",
    "Timeout",
    "URGENT",
    "derive_stream_seed",
]
