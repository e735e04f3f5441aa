"""An epoll-like readiness multiplexor.

Workers in the TCP architecture wait simultaneously on their IPC channel
(new connections, fd responses) and on every connection they own.  The
paper's §6 stresses that an event-driven server must *only* read when the
event mechanism reports readiness; :class:`Poller` is that mechanism.

A source must expose ``readable() -> bool`` and a ``readable_signal``
(:class:`~repro.sim.events.Signal`) that fires on every not-readable →
readable edge (DESIGN.md §3d) — whenever data arrives, at the latest.
"""

import functools
from typing import Dict, List, Set

from repro.sim.events import Signal
from repro.sim.primitives import Wait


class Poller:
    """Level-triggered readiness waiting over a dynamic source set.

    Each source's ``readable_signal`` is observed with one persistent
    listener installed at :meth:`add` time, which marks the source *hot*.
    :meth:`ready` examines only the hot sources — those readable at the
    last scan plus those signalled since — so waiting and polling are
    O(ready), not O(sources): the *simulator* stays efficient, while the
    modeled select/poll re-arm CPU cost is charged separately by the event
    loops via ``poll_per_fd_us`` × ``len(sources)``.
    """

    def __init__(self, engine, name: str = "poller") -> None:
        self.engine = engine
        self.name = name
        #: every added source, in add order
        self.sources: List = []
        #: source -> its add sequence number, which orders :meth:`ready`
        self._order: Dict = {}
        self._added = 0
        #: source -> the listener installed on its ``readable_signal``
        self._listeners: Dict = {}
        #: sources that may be readable; mutated in place, never replaced
        self._hot: Set = set()
        self._waker: Signal = None

    def _on_data(self, source, value=None) -> None:
        self._hot.add(source)
        waker = self._waker
        if waker is not None:
            self._waker = None
            waker.fire()

    def add(self, source) -> None:
        if source in self._order:
            return
        self._added += 1
        self._order[source] = self._added
        self._listeners[source] = listener = functools.partial(
            self._on_data, source)
        self.sources.append(source)
        source.readable_signal.listen(listener)
        if source.readable():
            self._on_data(source)

    def remove(self, source) -> None:
        if self._order.pop(source, None) is not None:
            self.sources.remove(source)
            self._hot.discard(source)
            source.readable_signal.unlisten(self._listeners.pop(source))

    def ready(self) -> List:
        """Sources currently readable (non-blocking poll), in add order."""
        hot = self._hot
        if not hot:
            return []
        ready = [source for source in sorted(hot, key=self._order.__getitem__)
                 if source.readable()]
        hot.clear()
        hot.update(ready)
        return ready

    def wait(self):
        """Generator: block until at least one source is readable;
        returns the list of ready sources."""
        while True:
            ready = self.ready()
            if ready:
                return ready
            self._waker = waker = Signal(self.engine,
                                         name=f"{self.name}.waker")
            # A mid-message poller wait (rare — the loops usually poll
            # between messages) attributes as socket-queue time.
            yield Wait(waker, "sockq")


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
