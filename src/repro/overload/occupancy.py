"""Local occupancy control: 503-shed a fraction of new INVITEs.

The classic local (server-side) algorithm from the SIP overload
literature (Hong et al.'s OCC family): every control interval, measure
CPU occupancy; when it exceeds the target, multiplicatively shrink the
fraction of new calls accepted, and grow it back when headroom returns.
A receive-queue panic threshold reacts faster than the occupancy
average can — queue growth is the leading edge of collapse.

Acceptance is enforced with a deterministic token accumulator rather
than a random draw, so cells stay reproducible: with fraction *f*, every
INVITE deposits *f* tokens and admission spends one — exactly an
``accept f of 1`` pattern with no RNG.
"""

from typing import Callable, Dict

from repro.overload.controller import OverloadController


class LocalOccupancyController(OverloadController):
    """Occupancy-triggered 503 rejection with multiplicative backoff."""

    name = "local-occupancy"
    #: occupancy the law steers toward (fraction of all cores busy)
    target = 0.85
    #: queue fill that triggers an immediate backoff.  High on purpose:
    #: Poisson bursts routinely fill a quarter of the receive buffer at
    #: 1× load, and shedding on those would cost real goodput — the
    #: panic is for *sustained* buildup, the leading edge of collapse.
    queue_high = 0.6
    queue_backoff = 0.7
    #: floor under the acceptance fraction (never shed everything)
    min_accept = 0.05
    #: cap on per-tick growth, so recovery cannot overshoot straight
    #: back into collapse
    max_growth = 1.25

    def __init__(self) -> None:
        super().__init__()
        self.accept_fraction = 1.0
        self._tokens = 0.0

    # -- control law ---------------------------------------------------
    def update(self, occupancy: float, queue_fill: float) -> None:
        # OCC step: f *= target/rho (shrinks when rho > target, grows
        # toward 1 when below), clamped so growth is gradual.
        ratio = self.target / max(occupancy, 1e-6)
        fraction = self.accept_fraction * min(ratio, self.max_growth)
        if queue_fill > self.queue_high:
            # Receive queue building: occupancy alone lags this.
            fraction = min(fraction,
                           self.accept_fraction * self.queue_backoff)
        self.accept_fraction = min(1.0, max(self.min_accept, fraction))

    # -- admission -----------------------------------------------------
    def admit(self, now: float, source) -> bool:
        fraction = self.accept_fraction
        if fraction >= 1.0:
            return True
        self._tokens += fraction
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    # -- observability -------------------------------------------------
    def gauge_probes(self) -> Dict[str, Callable[[], float]]:
        return {
            "accept_fraction": lambda: self.accept_fraction,
            "occupancy": lambda: self.occupancy,
            "queue_fill": lambda: self.queue_fill,
        }
