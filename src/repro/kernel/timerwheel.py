"""Cancellable, restartable timers.

Used by the SIP transaction layer (retransmission timers A/B/E/F/G/H) and
by OpenSER's idle-connection management.
"""

from typing import Any, Callable, Optional

from repro.sim.engine import Engine, Scheduled


class Timer:
    """A one-shot timer that can be cancelled or restarted."""

    __slots__ = ("engine", "fn", "args", "_handle", "__weakref__")

    def __init__(self, engine: Engine, fn: Callable, *args: Any) -> None:
        self.engine = engine
        self.fn = fn
        self.args = args
        self._handle: Optional[Scheduled] = None

    @property
    def active(self) -> bool:
        return self._handle is not None and not self._handle.cancelled

    def start(self, delay_us: float) -> None:
        """Arm the timer; restarts (reschedules) if already armed."""
        self.cancel()
        self._handle = self.engine.schedule(delay_us, self._fire)

    def cancel(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def close(self) -> None:
        """Cancel and drop the callback, which pins its owner (DESIGN §3c)."""
        self.cancel()
        self.fn = self.args = None

    def _fire(self) -> None:
        self._handle = None
        self.fn(*self.args)

    def __repr__(self) -> str:
        state = "armed" if self.active else "idle"
        return f"<Timer {getattr(self.fn, '__name__', self.fn)} {state}>"


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

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return f"<PeriodicTimer {self.period_us}us {state}>"
