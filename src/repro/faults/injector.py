"""Binds a :class:`~repro.faults.plan.FaultPlan` to a live testbed.

The injector is armed once, at the start of the measurement window; it
then schedules one plain engine callback (zero simulated cost) per
worker crash, which calls ``proxy.crash_worker`` to kill the process.

Every crash is appended to :attr:`FaultInjector.log` (plain JSON) and,
when the testbed is traced, emitted as an instant event so faults line
up with proxy spans in the Chrome trace.
"""

from typing import Dict, List, Optional

from repro.faults.plan import FaultPlan, FaultPlanError


class FaultInjector:
    """Schedules one plan's events against one testbed + proxy."""

    def __init__(self, testbed, proxy, plan: FaultPlan) -> None:
        self.engine = testbed.engine
        self.proxy = proxy
        self.plan = plan
        # Reject a worker this proxy does not have, so an impossible plan
        # fails here rather than mid-measurement.
        for event in plan:
            if not 0 <= event.worker < proxy.config.workers:
                raise FaultPlanError(
                    f"{event.kind}: {type(proxy).__name__} has no worker "
                    f"{event.worker}")
        #: JSON-ready record of every applied event, in simulated order
        self.log: List[Dict] = []
        self.armed_at: Optional[float] = None

    # ------------------------------------------------------------------
    def arm(self, t0_us: Optional[float] = None) -> "FaultInjector":
        """Schedule the whole plan relative to ``t0_us`` (default now)."""
        if self.armed_at is not None:
            raise RuntimeError("injector already armed")
        t0 = self.engine.now if t0_us is None else t0_us
        self.armed_at = t0
        for event in self.plan:
            self.engine.schedule_at(t0 + event.start_us, self._apply, event)
        return self

    def _apply(self, event) -> None:
        self.proxy.crash_worker(event.worker)
        entry = {"t_us": self.engine.now, "action": "apply"}
        entry.update(event.to_dict())
        self.log.append(entry)
        if self.proxy.probe is not None:
            self.proxy.probe.instant("fault_apply", cat="faults",
                                     who="injector", kind=event.kind)
