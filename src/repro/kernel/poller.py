"""An epoll-like readiness multiplexor.

Workers in the TCP architecture wait simultaneously on their IPC channel
(new connections, fd responses) and on every connection they own.  The
paper's §6 stresses that an event-driven server must *only* read when the
event mechanism reports readiness; :class:`Poller` is that mechanism.

A source must expose ``readable() -> bool`` and a ``readable_signal``
(:class:`~repro.sim.events.Signal` fired whenever data arrives).
"""

from typing import List

from repro.sim.events import Signal
from repro.sim.primitives import Wait


class Poller:
    """Level-triggered readiness waiting over a dynamic source set.

    Each source's ``readable_signal`` is observed with one persistent
    listener installed at :meth:`add` time, so waiting is O(ready), not
    O(sources) — the *simulator* stays efficient, while the modeled
    select/poll re-arm CPU cost is charged separately by the event loops
    via ``poll_per_fd_us``.
    """

    def __init__(self, engine, name: str = "poller") -> None:
        self.engine = engine
        self.name = name
        self.sources: List = []
        self._waker: Signal = None

    def _on_data(self, value=None) -> None:
        waker = self._waker
        if waker is not None:
            self._waker = None
            waker.fire()

    def add(self, source) -> None:
        if source not in self.sources:
            self.sources.append(source)
            source.readable_signal.listen(self._on_data)
            if source.readable():
                self._on_data()

    def remove(self, source) -> None:
        if source in self.sources:
            self.sources.remove(source)
            source.readable_signal.unlisten(self._on_data)

    def ready(self) -> List:
        """Sources currently readable (non-blocking poll)."""
        return [source for source in self.sources if source.readable()]

    def wait(self, timeout_us: float = None):
        """Generator: block until at least one source is readable.

        Returns the list of ready sources; on timeout returns ``[]``.
        """
        while True:
            ready = self.ready()
            if ready:
                return ready
            self._waker = waker = Signal(self.engine,
                                         name=f"{self.name}.waker")
            timer = None
            if timeout_us is not None:
                timer = self.engine.schedule(timeout_us, self._on_data, None)
            # A mid-message poller wait (rare — the loops usually poll
            # between messages) attributes as socket-queue time.
            yield Wait(waker, "sockq")
            if timer is not None:
                timer.cancel()
            self._waker = None
            if timeout_us is not None and not self.ready():
                return []

    def __repr__(self) -> str:
        return f"<Poller {self.name} sources={len(self.sources)}>"


class TickSource:
    """A poller source that becomes readable every ``period_us``.

    Event loops that must do periodic housekeeping (idle sweeps) register
    one of these instead of polling with a timeout — a single timer per
    loop instead of one abandoned timeout event per wait round.
    """

    def __init__(self, engine, period_us: float, name: str = "tick") -> None:
        if period_us <= 0:
            raise ValueError("period must be positive")
        self.engine = engine
        self.period_us = period_us
        self.name = name
        self.pending = False
        self.readable_signal = Signal(engine, name=f"{name}.signal")
        self._arm()

    def _arm(self) -> None:
        self.engine.schedule(self.period_us, self._fire)

    def _fire(self) -> None:
        self.pending = True
        self.readable_signal.fire()
        self._arm()

    def readable(self) -> bool:
        return self.pending

    def consume(self) -> None:
        """Acknowledge the tick (call when the housekeeping ran)."""
        self.pending = False

    def __repr__(self) -> str:
        return f"<TickSource {self.name} every {self.period_us}us>"
