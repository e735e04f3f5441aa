"""The pluggable overload-control interface.

The paper stops at saturation; past it, SIP servers collapse — queueing
delay crosses T1, clients retransmit, and the server burns its CPU
absorbing duplicates instead of completing calls (Hong et al., "A
Comparative Study of SIP Overload Control Algorithms"; Shen &
Schulzrinne, "On TCP-based SIP Server Overload Control").  An
:class:`OverloadController` decides, per arriving INVITE, whether the
proxy admits it or sheds it with a cheap 503 + Retry-After (the
rejection fast path in :meth:`repro.proxy.core.ProxyCore.process`).

Controllers observe the live proxy (CPU occupancy, receive-queue fill,
transaction completions) through zero-simulated-cost callbacks — the
decision itself is what costs CPU, and that cost is charged on the
rejection/admission paths in the core, exactly like a real in-server
admission check.  Control-law updates run on a
:class:`~repro.kernel.timerwheel.PeriodicTimer` tick; a real
implementation's per-tick arithmetic is nanoseconds and is not charged.
"""

from typing import Callable, Dict, Optional

from repro.kernel.timerwheel import PeriodicTimer


class OverloadController:
    """Admission policy for new INVITEs (base class admits everything).

    Lifecycle: constructed by name, then :meth:`bind` is called once by
    :meth:`repro.proxy.base.BaseProxyServer.start` with the live server;
    from then on, every :attr:`control_interval_us` the tick refreshes
    :attr:`occupancy` (CPU busy fraction over the interval just ended)
    and :attr:`queue_fill` (the transport's receive-queue fill) and
    hands both to :meth:`update`, the control law.  Hooks:

    - :meth:`admit` — called by the core's fast path for every arriving
      INVITE *before* any parsing/transaction work; return False to shed
      it with a 503.
    - :meth:`note_admitted` / :meth:`note_done` — transaction lifecycle
      feedback (new INVITE transaction created / reached a final
      response or timed out), used by window-based controllers.
    - :meth:`forget_source` — the transport dropped an upstream
      (connection closed); per-source state must not leak.
    """

    name = "base"
    #: advertised in the 503's Retry-After header (seconds)
    retry_after_s = 1
    #: how often the control law re-evaluates its signals (µs of
    #: simulated time)
    control_interval_us = 20_000.0

    def __init__(self) -> None:
        self.occupancy = 0.0
        self.queue_fill = 0.0
        self._timer: Optional[PeriodicTimer] = None

    # -- lifecycle -----------------------------------------------------
    def bind(self, proxy) -> None:
        """Attach to a started proxy server and begin controlling."""
        self._scheduler = proxy.machine.scheduler
        self._n_cores = len(self._scheduler.cores)
        self._queue_fill_fn = proxy.queue_fill
        self._last_busy = self._scheduler.total_busy_us()
        self._timer = PeriodicTimer(proxy.engine, self.control_interval_us,
                                    self._tick)
        self._timer.start()

    def stop(self) -> None:
        """Detach the timer (the proxy is being torn down)."""
        if self._timer is not None:
            self._timer.stop()

    def _tick(self) -> None:
        busy = self._scheduler.total_busy_us()
        self.occupancy = (busy - self._last_busy) / (
            self.control_interval_us * self._n_cores)
        self._last_busy = busy
        self.queue_fill = self._queue_fill_fn()
        self.update(self.occupancy, self.queue_fill)

    def update(self, occupancy: float, queue_fill: float) -> None:
        """The control law; subclasses adjust their admission state."""

    # -- admission -----------------------------------------------------
    def admit(self, now: float, source) -> bool:
        """Admit (True) or shed (False) one arriving INVITE."""
        return True

    # -- transaction feedback ------------------------------------------
    def note_admitted(self, source) -> None:
        """A new INVITE transaction was created for ``source``."""

    def note_done(self, source, success: bool = True) -> None:
        """An admitted INVITE reached a final response (or timed out)."""

    def forget_source(self, source) -> None:
        """The transport destroyed ``source``; drop its state."""

    # -- observability -------------------------------------------------
    def gauge_probes(self) -> Dict[str, Callable[[], float]]:
        """Named zero-cost gauges for the metric sampler (read-only)."""
        return {}
