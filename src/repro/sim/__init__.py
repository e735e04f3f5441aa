"""Discrete-event simulation core.

The simulator models time in microseconds of *simulated* time.  Everything
in :mod:`repro` — the OS scheduler, the network, the SIP proxy — runs on
top of this engine, so wall-clock interpreter speed never contaminates the
measured results.

Public surface:

- :class:`~repro.sim.engine.Engine` — the event loop and clock.
- :class:`~repro.sim.process.SimProcess` — a generator-based simulated
  process (used for client phones and other uncontended actors; CPU-bound
  server processes instead run under :class:`repro.kernel.scheduler.Scheduler`).
- Effect primitives in :mod:`repro.sim.primitives`.
- :class:`~repro.sim.events.Event` / :class:`~repro.sim.events.Signal`.
- :class:`~repro.sim.rng.RngStreams` — named deterministic RNG streams.
"""

from repro.sim.engine import Engine, Scheduled, SimulationError
from repro.sim.events import Event
from repro.sim.primitives import (
    Compute,
    Sleep,
    Wait,
    YieldCPU,
    Fork,
    Exit,
)
from repro.sim.process import SimProcess, ProcessState
from repro.sim.rng import RngStreams

__all__ = [
    "Engine",
    "Scheduled",
    "SimulationError",
    "Event",
    "Compute",
    "Sleep",
    "Wait",
    "YieldCPU",
    "Fork",
    "Exit",
    "SimProcess",
    "ProcessState",
    "RngStreams",
]
