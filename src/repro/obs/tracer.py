"""Span tracing keyed to simulated time.

A :class:`Span` covers one interval of simulated time — one message's
trip through a worker, one supervisor fd-passing round trip, one idle
sweep — and carries attributes (call-id, worker, transport) for
filtering in a trace viewer.  An *instant* is a zero-length span (a
context switch, a cache hit, a blocked IPC send).

Completed events land in a ring buffer stored as columns (DESIGN.md §3b
"Sink storage"): million-operation runs stay bounded, the newest events
win, and :attr:`Tracer.dropped` records how many old events were evicted
so exports can say the trace is partial.  Only an *open* span is a
:class:`Span` object, so call sites can ``set()`` attributes on it;
:meth:`Tracer.end` is the commit point, after which the row is final and
the object is garbage.  :meth:`Tracer.events` and :meth:`Tracer.spans`
build :class:`Span` views on request.

Wiring is :mod:`repro.obs.probe`'s: components hold the testbed's
``probe`` (``None`` when nothing is observed) and call its
``begin``/``end``/``instant`` hooks, which are this class's bound methods
while span tracing is on — the untraced hot path costs one attribute
load and a branch.
"""

from array import array
from itertools import chain
from typing import Dict, List, Optional

#: default ring-buffer capacity (events); ≈ 111 bytes/event allocated
#: here: five list slots, two doubles and a values tuple per row, list
#: growth included (measured on an observed small ``tcp-persistent``
#: cell)
DEFAULT_CAPACITY = 200_000


class Span:
    """One traced interval of simulated time.

    ``end_us`` is ``None`` while the span is open; :meth:`Tracer.end`
    stamps it and commits it to the ring buffer.  Instants have
    ``end_us == start_us``.  Spans compare by value, so a view read back
    from the tracer equals the span that was recorded.
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

    def __eq__(self, other) -> bool:
        if not isinstance(other, Span):
            return NotImplemented
        return (self.name, self.cat, self.who, self.start_us, self.end_us,
                self.attrs) == (other.name, other.cat, other.who,
                                other.start_us, other.end_us, other.attrs)

    __hash__ = None


class Tracer:
    """Ring-buffered span recorder for one simulation."""

    def __init__(self, engine, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("tracer capacity must be positive")
        self.engine = engine
        self.capacity = capacity
        self.clear()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def begin(self, name: str, cat: str = "proxy", who: str = "?",
              **attrs) -> Span:
        """Open a span at the current simulated time (not yet buffered)."""
        return Span(name, cat, who, self.engine.now, attrs or None)

    def end(self, span: Span) -> Span:
        """Close ``span`` now and commit it to the ring buffer.

        The row is final from here: a later ``set()`` on ``span`` does
        not reach the buffer.
        """
        span.end_us = now = self.engine.now
        self._append(span.name, span.cat, span.who, span.start_us, now,
                     span.attrs)
        return span

    def instant(self, name: str, cat: str = "kernel", who: str = "?",
                **attrs) -> None:
        """Record a zero-length event at the current simulated time."""
        now = self.engine.now
        self._append(name, cat, who, now, now, attrs)

    def _append(self, name: str, cat: str, who: str, start_us: float,
                end_us: float, attrs: Optional[Dict]) -> None:
        if attrs:
            keys = tuple(attrs)
            keys = self._key_sets.setdefault(keys, keys)
            values = tuple(attrs.values())
        else:
            keys = values = None
        row = self.emitted
        self.emitted = row + 1
        if row < self.capacity:
            self._name.append(name)
            self._cat.append(cat)
            self._who.append(who)
            self._keys.append(keys)
            self._values.append(values)
            self._times.append(start_us)
            self._times.append(end_us)
            return
        row %= self.capacity
        self._name[row] = name
        self._cat[row] = cat
        self._who[row] = who
        self._keys[row] = keys
        self._values[row] = values
        self._times[2 * row] = start_us
        self._times[2 * row + 1] = end_us

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Events evicted by the ring buffer (oldest-first)."""
        return self.emitted - len(self._name)

    def __len__(self) -> int:
        return len(self._name)

    def _rows(self):
        """Row indices of the buffer, oldest first."""
        n = len(self._name)
        head = self.emitted % n if self.emitted > n else 0
        return chain(range(head, n), range(head))

    def _span(self, row: int) -> Span:
        """A :class:`Span` view of one row (attrs rebuilt as a dict)."""
        keys = self._keys[row]
        span = Span(self._name[row], self._cat[row], self._who[row],
                    self._times[2 * row],
                    dict(zip(keys, self._values[row])) if keys else None)
        span.end_us = self._times[2 * row + 1]
        return span

    def events(self) -> List[Span]:
        """The buffered events, oldest first (views built per call)."""
        return [self._span(row) for row in self._rows()]

    def clear(self) -> None:
        # The ring store: row r of these parallel columns is one event.
        # _append() adds rows until ``capacity`` exist, then overwrites
        # row ``emitted % capacity``, the oldest.
        self._name: List[str] = []
        self._cat: List[str] = []
        self._who: List[str] = []
        #: attribute names per row: one shared tuple per key set
        self._keys: List[Optional[tuple]] = []
        self._values: List[Optional[tuple]] = []
        #: start_us and end_us of row r at 2r and 2r + 1
        self._times = array("d")
        #: the one tuple kept per attribute key set
        self._key_sets: Dict[tuple, tuple] = {}
        #: completed events ever recorded (≥ len(self) once evicting)
        self.emitted = 0
