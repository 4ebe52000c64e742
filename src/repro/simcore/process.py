"""Coroutine processes driven by the event loop."""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from .errors import Interrupt, SimulationError
from .events import Event, PENDING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .environment import Environment

ProcessGenerator = Generator[Event, object, object]


class Initialize(Event):
    """Immediate event that kick-starts a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks = [process._resumer]
        env.schedule(self, priority=0)


class Process(Event):
    """Wraps a generator; the process event fires when the generator ends.

    The generator yields :class:`Event` instances and is resumed with the
    event's value (or the event's exception is thrown into it). Other
    processes may wait on a Process like any other event, or interrupt it.

    A *detached* process is one nobody keeps a reference to, so nothing can
    wait on its end: it schedules no termination event. An exception that
    escapes its generator propagates out of ``run()`` at once instead.
    """

    __slots__ = ("_generator", "_target", "_detached", "name", "_resumer")

    def __init__(
        self,
        env: "Environment",
        generator: ProcessGenerator,
        name: str = "",
        detached: bool = False,
    ) -> None:
        if not hasattr(generator, "throw"):
            raise ValueError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        self._detached = detached
        self.name = name or getattr(generator, "__name__", "process")
        #: ``_resume`` bound once: the callback every wait appends.
        self._resumer = self._resume
        self._start()

    def _start(self) -> None:
        """Schedule the first step: an URGENT :class:`Initialize` at ``now``."""
        Initialize(self.env, self)

    @property
    def target(self) -> Optional[Event]:
        """The event this process currently waits on (None if running)."""
        return self._target

    @property
    def is_alive(self) -> bool:
        return self._value is PENDING

    def interrupt(self, cause: object = None) -> None:
        """Throw an :class:`Interrupt` into the process at the next step."""
        if not self.is_alive:
            raise SimulationError(f"{self.name} has terminated; cannot interrupt")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        # Detach from the awaited event and schedule an immediate resume that
        # throws the interrupt.
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resumer)
            except ValueError:
                pass
        interrupt_event.callbacks = [self._resumer]
        self.env.schedule(interrupt_event, priority=0)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        env = self.env
        env._active_process = self
        self._target = None
        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    event._defused = True
                    exc = event._value
                    assert isinstance(exc, BaseException)
                    next_event = self._generator.throw(exc)
            except StopIteration as stop:
                env._active_process = None
                # Nothing resumes it again: drop the self-reference.
                self._resumer = None
                self._ok = True
                self._value = stop.value
                if not self._detached:
                    env.schedule(self)
                return
            except BaseException as error:
                env._active_process = None
                self._resumer = None
                self._ok = False
                self._value = error
                if self._detached:
                    raise
                env.schedule(self)
                return

            if not isinstance(next_event, Event):
                # Throw the error into the generator and treat whatever it
                # does next (yield, return or raise) as a normal step.
                event = Event(env)
                event._ok = False
                event._value = SimulationError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                continue

            if next_event.callbacks is not None:
                # Event is still pending/triggered: wait for it.
                next_event.callbacks.append(self._resumer)
                self._target = next_event
                env._active_process = None
                return
            # Event was already processed: loop and feed its value directly.
            event = next_event


#: What a first step is resumed with: an :class:`Initialize`'s outcome.
_STARTED = Event.__new__(Event)
_STARTED._ok, _STARTED._value = True, None


class InlineStart(Process):
    """A detached process whose first step runs as it is created, inside
    the running callback, instead of from an :class:`Initialize` event
    (:meth:`Environment.start_inline
    <repro.simcore.Environment.start_inline>`). The process that was
    active before is active again after that step."""

    __slots__ = ()

    def __init__(self, env: "Environment", generator: ProcessGenerator, name: str = "") -> None:
        super().__init__(env, generator, name=name, detached=True)

    def _start(self) -> None:
        env = self.env
        active = env._active_process
        self._resume(_STARTED)
        env._active_process = active
