"""Span tracing keyed to simulated time.

A :class:`Span` covers one interval of simulated time — one message's
trip through a worker, one supervisor fd-passing round trip, one idle
sweep — and carries attributes (call-id, worker, transport) for
filtering in a trace viewer.  An *instant* is a zero-length span (a
context switch, a cache hit, a blocked IPC send).

Completed events land in a ring buffer (:class:`collections.deque` with
``maxlen``): million-operation runs stay bounded, the newest events win,
and :attr:`Tracer.dropped` records how many old events were evicted so
exports can say the trace is partial.

Wiring is :mod:`repro.obs.probe`'s: components hold the testbed's
``probe`` (``None`` when nothing is observed) and call its
``begin``/``end``/``instant`` hooks, which are this class's bound methods
while span tracing is on — the untraced hot path costs one attribute
load and a branch.
"""

import collections
from typing import Dict, Iterator, List, Optional

#: default ring-buffer capacity (events); 88 bytes/event allocated here
#: (the Span and its deque slot, measured on an observed small
#: ``tcp-persistent`` cell), plus the attrs dict each call site builds
DEFAULT_CAPACITY = 200_000


class Span:
    """One traced interval of simulated time.

    ``end_us`` is ``None`` while the span is open; :meth:`Tracer.end`
    stamps it and moves the span into the ring buffer.  Instants have
    ``end_us == start_us``.
    """

    __slots__ = ("name", "cat", "who", "start_us", "end_us", "attrs")

    def __init__(self, name: str, cat: str, who: str, start_us: float,
                 attrs: Optional[Dict] = None) -> None:
        self.name = name
        self.cat = cat
        self.who = who
        self.start_us = start_us
        self.end_us: Optional[float] = None
        self.attrs = attrs

    @property
    def duration_us(self) -> float:
        if self.end_us is None:
            return 0.0
        return self.end_us - self.start_us

    def set(self, **attrs) -> "Span":
        """Attach (more) attributes to an open span."""
        if self.attrs is None:
            self.attrs = attrs
        else:
            self.attrs.update(attrs)
        return self

    def __repr__(self) -> str:
        state = ("open" if self.end_us is None
                 else f"{self.duration_us:.1f}us")
        return f"<Span {self.cat}:{self.name} @{self.start_us:.1f} {state}>"


class Tracer:
    """Ring-buffered span recorder for one simulation."""

    def __init__(self, engine, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("tracer capacity must be positive")
        self.engine = engine
        self.capacity = capacity
        self._events: collections.deque = collections.deque(maxlen=capacity)
        #: completed events ever recorded (≥ len(events) once evicting)
        self.emitted = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def begin(self, name: str, cat: str = "proxy", who: str = "?",
              **attrs) -> Span:
        """Open a span at the current simulated time (not yet buffered)."""
        return Span(name, cat, who, self.engine.now, attrs or None)

    def end(self, span: Span) -> Span:
        """Close ``span`` now and commit it to the ring buffer."""
        span.end_us = self.engine.now
        self._events.append(span)
        self.emitted += 1
        return span

    def instant(self, name: str, cat: str = "kernel", who: str = "?",
                **attrs) -> Span:
        """Record a zero-length event at the current simulated time."""
        span = Span(name, cat, who, self.engine.now, attrs or None)
        span.end_us = span.start_us
        self._events.append(span)
        self.emitted += 1
        return span

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Events evicted by the ring buffer (oldest-first)."""
        return self.emitted - len(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> List[Span]:
        """The buffered events, oldest first."""
        return list(self._events)

    def spans(self, name: Optional[str] = None) -> Iterator[Span]:
        """Buffered events, filtered by name."""
        for span in self._events:
            if name is None or span.name == name:
                yield span

    def clear(self) -> None:
        self._events.clear()
        self.emitted = 0

    def __repr__(self) -> str:
        return (f"<Tracer events={len(self._events)}/{self.capacity} "
                f"dropped={self.dropped}>")
