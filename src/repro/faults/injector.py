"""Binds a :class:`~repro.faults.plan.FaultPlan` to a live testbed.

The injector is armed once, at the start of the measurement window; it
then schedules plain engine callbacks (zero simulated cost) that flip
the fault hooks exposed by the fabric, the scheduler, the IPC channels
and the proxy:

======================  ================================================
event                   mechanism
======================  ================================================
loss-burst              ``fabric.loss_rate`` (save/restore)
latency-window          ``fabric.extra_latency_us`` / ``extra_jitter_us``
partition               ``fabric.partition`` / ``fabric.heal``
worker-crash            ``proxy.crash_worker`` (kills the process)
worker-hang             ``scheduler.suspend`` / ``scheduler.resume``
ipc-stall               ``IpcChannel.stall`` / ``unstall``
======================  ================================================

Every apply/revert is appended to :attr:`FaultInjector.log` (plain JSON)
and, when the testbed is traced, emitted as an instant event so faults
line up with proxy spans in the Chrome trace.
"""

from typing import Dict, List, Optional

from repro.faults.plan import (FaultPlan, FaultPlanError, IpcStall,
                               LatencyWindow, LossBurst, Partition,
                               WorkerCrash, WorkerHang)


class FaultInjector:
    """Schedules one plan's events against one testbed + proxy."""

    def __init__(self, testbed, proxy, plan: FaultPlan) -> None:
        self.engine = testbed.engine
        self.fabric = testbed.fabric
        self.proxy = proxy
        self.plan = plan
        for event in plan:
            self._check(event)
        #: JSON-ready record of every apply/revert, in simulated order
        self.log: List[Dict] = []
        self.armed_at: Optional[float] = None
        #: per-event saved knob values for exact window restore
        self._saved: Dict[int, Dict] = {}

    # ------------------------------------------------------------------
    def arm(self, t0_us: Optional[float] = None) -> "FaultInjector":
        """Schedule the whole plan relative to ``t0_us`` (default now)."""
        if self.armed_at is not None:
            raise RuntimeError("injector already armed")
        t0 = self.engine.now if t0_us is None else t0_us
        self.armed_at = t0
        for event in self.plan:
            self.engine.schedule_at(t0 + event.start_us, self._apply, event)
            if event.windowed:
                self.engine.schedule_at(t0 + event.end_us,
                                        self._revert, event)
        return self

    # ------------------------------------------------------------------
    def _record(self, action: str, event) -> None:
        entry = {"t_us": self.engine.now, "action": action}
        entry.update(event.to_dict())
        self.log.append(entry)
        if self.proxy.probe is not None:
            self.proxy.probe.instant(f"fault_{action}", cat="faults",
                                     who="injector", kind=event.kind)

    def _apply(self, event) -> None:
        fabric = self.fabric
        if isinstance(event, LossBurst):
            self._saved[id(event)] = {"loss_rate": fabric.loss_rate}
            fabric.loss_rate = event.loss_rate
        elif isinstance(event, LatencyWindow):
            self._saved[id(event)] = {
                "extra_latency_us": fabric.extra_latency_us,
                "extra_jitter_us": fabric.extra_jitter_us,
            }
            fabric.extra_latency_us += event.extra_latency_us
            fabric.extra_jitter_us += event.extra_jitter_us
        elif isinstance(event, Partition):
            fabric.partition(event.a, event.b)
        elif isinstance(event, WorkerCrash):
            self.proxy.crash_worker(event.worker)
        elif isinstance(event, WorkerHang):
            proc = self._worker_proc(event.worker)
            self._saved[id(event)] = {"proc": proc}
            self.proxy.machine.scheduler.suspend(proc)
        elif isinstance(event, IpcStall):
            self._channel(event).stall()
        else:  # pragma: no cover - plan validation rejects these
            raise FaultPlanError(f"uninjectable event {event!r}")
        self._record("apply", event)

    def _revert(self, event) -> None:
        fabric = self.fabric
        if isinstance(event, LossBurst):
            fabric.loss_rate = self._saved.pop(id(event))["loss_rate"]
        elif isinstance(event, LatencyWindow):
            saved = self._saved.pop(id(event))
            fabric.extra_latency_us = saved["extra_latency_us"]
            fabric.extra_jitter_us = saved["extra_jitter_us"]
        elif isinstance(event, Partition):
            fabric.heal(event.a, event.b)
        elif isinstance(event, WorkerHang):
            # Resume the process suspended at apply time.  If the
            # watchdog restarted (killed) it meanwhile, resume() clears
            # the flag but never reschedules a dead process.
            proc = self._saved.pop(id(event))["proc"]
            self.proxy.machine.scheduler.resume(proc)
        elif isinstance(event, IpcStall):
            self._channel(event).unstall()
        self._record("revert", event)

    # ------------------------------------------------------------------
    def _check(self, event) -> None:
        """Reject an event this testbed and proxy cannot take, so an
        impossible plan fails here rather than mid-measurement."""
        name = type(self.proxy).__name__
        if isinstance(event, Partition):
            for end in (event.a, event.b):
                if end not in self.fabric.machines:
                    raise FaultPlanError(
                        f"{event.kind}: no machine {end!r} on the fabric")
        if isinstance(event, (WorkerCrash, WorkerHang, IpcStall)) and \
                not 0 <= event.worker < self.proxy.config.workers:
            raise FaultPlanError(
                f"{event.kind}: {name} has no worker {event.worker}")
        if isinstance(event, IpcStall) and \
                not hasattr(self.proxy, f"{event.channel}_chans"):
            raise FaultPlanError(
                f"{event.kind}: {name} has no {event.channel!r} IPC "
                "channels")

    def _worker_proc(self, index: int):
        return dict(self.proxy.worker_processes())[index]

    def _channel(self, event: IpcStall):
        return getattr(self.proxy, f"{event.channel}_chans")[event.worker]

    def __repr__(self) -> str:
        state = (f"armed@{self.armed_at:.0f}us"
                 if self.armed_at is not None else "unarmed")
        return f"<FaultInjector {len(self.plan)} events {state}>"
