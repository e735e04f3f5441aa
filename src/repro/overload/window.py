"""Window-based overload control: bound in-flight INVITEs per upstream.

The feedback-window scheme of Shen & Schulzrinne's TCP overload-control
work, enforced proxy-side: each upstream source (a TCP connection
record, or a UDP source address) may have at most ``window`` INVITE
transactions outstanding; excess arrivals are shed with 503.  The window
is AIMD-adjusted from the base class's occupancy signal — additive increase
while the server has headroom, multiplicative decrease when occupancy or
the receive queue says overload — and an admitted call's completion (or
timeout) releases its slot.

Bounding *concurrency* rather than rate is what makes this scheme
self-clocking: under overload, per-call latency grows, so a fixed
window automatically admits fewer calls per second (Little's law), and
the shed traffic never enters the retransmission spiral.

Per-source state lives in a plain dict keyed by the source object (the
TCP servers' ``ConnRecord``, the UDP ``(addr, port)`` pair, the
``SctpAssociation``: all hashable, the two classes by identity); the
transports call :meth:`forget_source` when a connection dies so closed
upstreams cannot leak slots.
"""

from typing import Callable, Dict

from repro.overload.controller import OverloadController


class WindowController(OverloadController):
    """Per-upstream AIMD feedback window over in-flight INVITEs."""

    name = "window"
    target = 0.85
    queue_high = 0.25
    window_min = 1.0
    window_max = 64.0
    window_initial = 8.0
    #: additive increase per control tick with headroom
    increase = 0.25
    #: multiplicative decrease factor on overload
    decrease = 0.7

    def __init__(self) -> None:
        super().__init__()
        self.window = self.window_initial
        self._inflight: Dict[object, int] = {}

    # -- control law ---------------------------------------------------
    def update(self, occupancy: float, queue_fill: float) -> None:
        if occupancy > self.target or queue_fill > self.queue_high:
            self.window = max(self.window_min, self.window * self.decrease)
        else:
            self.window = min(self.window_max, self.window + self.increase)

    # -- admission -----------------------------------------------------
    def admit(self, now: float, source) -> bool:
        return self._inflight.get(source, 0) < self.window

    def note_admitted(self, source) -> None:
        self._inflight[source] = self._inflight.get(source, 0) + 1

    def note_done(self, source, success: bool = True) -> None:
        left = self._inflight.get(source, 0) - 1
        if left > 0:
            self._inflight[source] = left
        else:
            self._inflight.pop(source, None)
        if not success:
            # A timed-out admitted call is the strongest overload signal
            # there is; shrink without waiting for the next tick.
            self.window = max(self.window_min, self.window * self.decrease)

    def forget_source(self, source) -> None:
        self._inflight.pop(source, None)

    # -- observability -------------------------------------------------
    def inflight_total(self) -> int:
        return sum(self._inflight.values())

    def gauge_probes(self) -> Dict[str, Callable[[], float]]:
        return {
            "window": lambda: self.window,
            "inflight": lambda: float(self.inflight_total()),
            "occupancy": lambda: self.occupancy,
        }
