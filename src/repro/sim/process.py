"""Generator-driven simulated processes.

:class:`SimProcess` drives a process body (a generator yielding
:mod:`~repro.sim.primitives` effects) directly on the engine with
*uncontended* CPU: ``Compute`` simply advances the clock.  This is the
right model for the benchmark client machines, which the paper monitored
"to ensure that they were never the bottleneck" (§4.1).

Server-side processes instead run as
:class:`repro.kernel.scheduler.KernelProcess`, a subclass that routes CPU
effects through the simulated multi-core scheduler.
"""

import enum
from functools import partial
from typing import Any, Iterator, Optional

from repro.sim.engine import Engine, SimulationError
from repro.sim.events import Event
from repro.sim.primitives import Compute, Exit, Fork, Sleep, Wait, YieldCPU


class ProcessState(enum.Enum):
    NEW = "new"
    LIVE = "live"
    DONE = "done"
    KILLED = "killed"
    FAILED = "failed"


#: the states of :attr:`SimProcess.alive`; hot paths test membership
#: directly rather than pay the property's call frame
ALIVE_STATES = (ProcessState.NEW, ProcessState.LIVE)


class SimProcess:
    """A simulated process executing a generator of effects."""

    #: KernelProcess adds its scheduler state in a ``__dict__``
    __slots__ = ("engine", "name", "gen", "state", "result", "error",
                 "_done", "_epoch")

    def __init__(self, engine: Engine, body: Iterator, name: str = "proc") -> None:
        self.engine = engine
        self.name = name
        self.gen = body
        self.state = ProcessState.NEW
        self.result: Any = None
        self.error: Optional[BaseException] = None
        #: built by the first access to :attr:`done`
        self._done: Optional[Event] = None
        #: incremented on every resume; lets stale wakeups be discarded
        self._epoch = 0

    @property
    def done(self) -> Event:
        """Fires with the result (``None`` if killed or failed) when the
        process ends.  Built on first access — nothing in the model waits
        on it — and already fired if the process has ended by then."""
        done = self._done
        if done is None:
            done = self._done = Event(self.engine, name=f"{self.name}.done")
            if self.state not in ALIVE_STATES:
                done.fire(self.result)
        return done

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "SimProcess":
        """Begin execution (first step runs as a zero-delay event)."""
        if self.state is not ProcessState.NEW:
            raise SimulationError(f"{self.name}: start() called twice")
        self.state = ProcessState.LIVE
        self.engine.schedule(0.0, self._resume, None, self._epoch)
        return self

    def kill(self) -> None:
        """Terminate the process; any pending wakeups are discarded."""
        if self.state in (ProcessState.DONE, ProcessState.KILLED, ProcessState.FAILED):
            return
        self._epoch += 1
        self.state = ProcessState.KILLED
        self.gen.close()
        if self._done is not None:
            self._done.fire(None)

    @property
    def alive(self) -> bool:
        return self.state in ALIVE_STATES

    # ------------------------------------------------------------------
    # driving the generator
    # ------------------------------------------------------------------
    def _resume(self, value: Any, epoch: int) -> None:
        """Advance the generator with ``value``; drop stale wakeups."""
        if epoch != self._epoch or self.state is not ProcessState.LIVE:
            return
        effect = self._step(value)
        if effect is not None or self.alive:  # a yielded None is rejected
            self._dispatch(effect)

    def _step(self, value: Any):
        """Advance the body to its next effect; ``None`` once it finished.
        The one place a body advances (DESIGN.md §3d)."""
        self._epoch += 1
        try:
            return self.gen.send(value)
        except StopIteration as stop:
            self._finish(getattr(stop, "value", None))
            return None
        except BaseException as exc:  # noqa: BLE001 - surfaced to the engine
            self.state = ProcessState.FAILED
            self.error = exc
            if self._done is not None:
                self._done.fire(None)
            raise

    def _wake(self, epoch: int, value: Any) -> None:
        """A waited-on source fired; :meth:`_resume` drops it if stale."""
        self._resume(value, epoch)

    def _dispatch(self, effect) -> None:
        """Interpret one effect.  Subclasses override CPU-related cases."""
        epoch = self._epoch
        if isinstance(effect, Compute):
            self._on_compute(effect, epoch)
        elif isinstance(effect, Sleep):
            self.engine.schedule(effect.us, self._resume, None, epoch)
        elif isinstance(effect, Wait):
            # the plain function, not a bound method: one object fewer
            # per parked wait
            effect.source.subscribe(partial(SimProcess._wake, self, epoch))
        elif isinstance(effect, YieldCPU):
            self._on_yield(epoch)
        elif isinstance(effect, Fork):
            child = self._spawn(effect.body, effect.name)
            child.start()
            self.engine.schedule(0.0, self._resume, child, epoch)
        elif isinstance(effect, Exit):
            self.gen.close()
            self._finish(effect.value)
        else:
            raise SimulationError(f"{self.name}: unknown effect {effect!r}")

    # Hooks specialised by KernelProcess -------------------------------
    def _on_compute(self, effect: Compute, epoch: int) -> None:
        """Uncontended CPU: computing just takes time."""
        self.engine.schedule(effect.us, self._resume, None, epoch)

    def _on_yield(self, epoch: int) -> None:
        """Uncontended CPU: yielding is free."""
        self.engine.schedule(0.0, self._resume, None, epoch)

    def _spawn(self, body: Iterator, name: str) -> "SimProcess":
        return SimProcess(self.engine, body, name=name)

    def _finish(self, value: Any) -> None:
        self.state = ProcessState.DONE
        self.result = value
        self.gen = None  # a finished body has nothing left to run
        if self._done is not None:
            self._done.fire(value)

    def __repr__(self) -> str:
        return f"<SimProcess {self.name!r} {self.state.value}>"
