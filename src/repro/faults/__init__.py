"""Fault injection and resilience: plans, detection, recovery.

- :mod:`~repro.faults.plan` — the deterministic FaultPlan DSL (worker
  crashes at fixed offsets into the measurement window);
- :mod:`~repro.faults.injector` — binds a plan to a live testbed at the
  start of the measurement window;
- :mod:`~repro.faults.deadlock` — periodic wait-for-graph scans that
  catch the §6 supervisor↔worker cycle the moment it forms;
- :mod:`~repro.faults.watchdog` — detects crashed/deadlocked workers and
  drives the architecture's restart path.
"""

from repro.faults.deadlock import DeadlockDetector
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultPlanError, WorkerCrash
from repro.faults.watchdog import Watchdog

__all__ = [
    "DeadlockDetector",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "Watchdog",
    "WorkerCrash",
]
