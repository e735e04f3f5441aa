"""Periodic timers.

Used by the overload controllers, the supervisor watchdog, the deadlock
detector and the metrics sampler.  A one-shot timer (the SIP transaction
layer's A/B/E/F/G/H) needs nothing beyond the engine's own
:class:`~repro.sim.engine.Scheduled` handle, so there is no wheel: every
timer is an entry in the engine's heap.
"""

from typing import Any, Callable, Optional

from repro.sim.engine import Engine, Scheduled


class PeriodicTimer:
    """Fires ``fn`` every ``period_us`` until stopped."""

    def __init__(self, engine: Engine, period_us: float,
                 fn: Callable, *args: Any) -> None:
        if period_us <= 0:
            raise ValueError("period must be positive")
        self.engine = engine
        self.period_us = period_us
        self.fn = fn
        self.args = args
        self._handle: Optional[Scheduled] = None
        self.running = False

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self._handle = self.engine.schedule(self.period_us, self._tick)

    def stop(self) -> None:
        self.running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _tick(self) -> None:
        if not self.running:
            return
        self._handle = None
        try:
            self.fn(*self.args)
        except BaseException:
            # A failing callback must not leave a zombie timer ticking
            # forever; the timer is dead until start() is called again.
            self.running = False
            raise
        # Reschedule only after fn ran (and only if fn didn't stop us);
        # callbacks run at a fixed instant, so firing cadence is unchanged.
        if self.running:
            self._handle = self.engine.schedule(self.period_us, self._tick)
