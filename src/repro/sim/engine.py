"""The discrete-event engine: a clock and an ordered event heap.

Time is measured in **microseconds of simulated time** throughout the
project.  The engine guarantees deterministic ordering: events scheduled
for the same instant fire in the order they were scheduled.

Cancellation is lazy: a cancelled entry stays in the heap until it is
popped or until a compaction removes it.  The engine keeps an exact
count of cancelled entries still in the heap, so compaction triggers as
soon as cancelled entries outnumber live ones (restartable SIP
retransmission timers cancel on every restart, which used to bloat the
heap until a step-count heuristic fired).
"""

import heapq
from typing import Any, Callable, List, Optional


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation core."""


class Scheduled:
    """Handle for a scheduled callback; allows cancellation.

    Returned by :meth:`Engine.schedule` and :meth:`Engine.schedule_at`.
    A consumed (fired) entry is marked cancelled as well, so ``cancel``
    after the fact is a no-op and does not skew the engine's count.
    Either way it drops ``fn``/``args``: it may sit in the heap or with a
    holder long after, and must not pin what its callback would have reached.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "engine")

    def __init__(self, time: float, seq: int, fn: Callable, args: tuple,
                 engine: "Engine") -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.engine = engine

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            self.fn = self.args = None
            self.engine._cancelled += 1

    def __lt__(self, other: "Scheduled") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class Engine:
    """Event loop holding the simulated clock.

    Usage::

        eng = Engine()
        eng.schedule(10.0, callback)     # run callback at now+10 µs
        eng.run(until=1_000_000)         # simulate one second
    """

    #: compaction triggers: heap at least this big and mostly cancelled.
    #: Low enough that a small cell's heap (a few hundred live entries
    #: under thousands of cancelled timers) is compacted too; "mostly
    #: cancelled" keeps the amortised cost per cancel O(1) at any size.
    COMPACT_MIN = 1024

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[tuple] = []
        self._seq: int = 0
        self._running = False
        self._stopped = False
        #: exact number of cancelled entries still sitting in the heap
        self._cancelled = 0
        #: events executed so far (observability gauge; updated from a
        #: local accumulator so the fire loop stays attribute-free)
        self.events_fired = 0

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable, *args: Any) -> Scheduled:
        """Schedule ``fn(*args)`` to run ``delay`` µs from now."""
        # Inlined schedule_at: this is the hottest allocation site in the
        # whole simulator (millions of calls per cell).
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        self._seq = seq = self._seq + 1
        item = Scheduled(time, seq, fn, args, self)
        heap = self._heap
        # Heap entries are (time, seq, item) tuples so ordering runs on C
        # tuple comparison rather than Scheduled.__lt__.
        heapq.heappush(heap, (time, seq, item))
        # The heap only grows here, so this is the one place compaction
        # needs checking: fire when cancelled entries dominate.
        if self._cancelled * 2 > len(heap) and len(heap) >= self.COMPACT_MIN:
            self.compact()
        return item

    def schedule_at(self, time: float, fn: Callable, *args: Any) -> Scheduled:
        """Schedule ``fn(*args)`` to run at absolute simulated time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past (t={time}, now={self.now})"
            )
        self._seq = seq = self._seq + 1
        item = Scheduled(time, seq, fn, args, self)
        heap = self._heap
        heapq.heappush(heap, (time, seq, item))
        if self._cancelled * 2 > len(heap) and len(heap) >= self.COMPACT_MIN:
            self.compact()
        return item

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def compact(self) -> None:
        """Drop cancelled entries from the heap (kept lazily otherwise).

        Mutates the heap list in place so aliases held by a running
        :meth:`run` loop stay valid.
        """
        if self._cancelled:
            heap = self._heap
            live = [entry for entry in heap if not entry[2].cancelled]
            if len(live) < len(heap):
                heap[:] = live
                heapq.heapify(heap)
            self._cancelled = 0

    def step(self) -> bool:
        """Run the next pending event.  Returns False when none remain."""
        heap = self._heap
        pop = heapq.heappop
        while heap:
            time, __, item = pop(heap)
            if item.cancelled:
                self._cancelled -= 1
                continue
            if time < self.now:
                raise SimulationError("event heap corrupted: time went backwards")
            self.now = time
            item.cancelled = True  # consumed; a later cancel() is a no-op
            self.events_fired += 1
            fn, args = item.fn, item.args
            item.fn = item.args = None
            fn(*args)
            return True
        return False

    def run(self, until: Optional[float] = None) -> float:
        """Run events until the heap empties or the clock passes ``until``.

        Returns the simulated time at which the run stopped.  When
        ``until`` is given the clock is advanced to exactly ``until`` even
        if the last event fired earlier.
        """
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        self._stopped = False
        # Local bindings: this loop dominates every simulation's profile.
        # compact() rewrites the heap in place, so the alias stays valid.
        # The fired counter stays local for the same reason and is flushed
        # on exit; mid-run samplers read `events_scheduled` instead.
        heap = self._heap
        pop = heapq.heappop
        fired = 0
        try:
            while heap and not self._stopped:
                time, __, item = heap[0]
                if item.cancelled:
                    pop(heap)
                    self._cancelled -= 1
                    continue
                if until is not None and time > until:
                    break
                pop(heap)
                if time < self.now:
                    raise SimulationError(
                        "event heap corrupted: time went backwards")
                self.now = time
                item.cancelled = True  # consumed
                fired += 1
                fn, args = item.fn, item.args
                item.fn = item.args = None
                fn(*args)
            if until is not None and self.now < until and not self._stopped:
                self.now = until
        finally:
            self._running = False
            self.events_fired += fired
        return self.now

    def stop(self) -> None:
        """Stop an in-progress :meth:`run` after the current event."""
        self._stopped = True

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events in the heap (O(1))."""
        return len(self._heap) - self._cancelled

    @property
    def events_scheduled(self) -> int:
        """Events ever scheduled (O(1); exact even mid-run, unlike
        :attr:`events_fired` which flushes when :meth:`run` exits)."""
        return self._seq
