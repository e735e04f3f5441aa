"""The supervisor watchdog: detect dead or deadlocked workers and
restart them.

Two triggers, checked every period:

- **crash** — the worker process is no longer alive;
- **deadlock** — a :class:`~repro.faults.deadlock.DeadlockDetector`
  reports an active cycle involving the worker (restarting the worker
  drains its channels, which wakes the blocked supervisor — the §6
  recovery path).

Recovery itself is the proxy's job (``BaseProxyServer.restart_worker``,
one template for every architecture): kill what is left of the process,
reap what it held, spawn a replacement, re-home the connections it
owned.  The watchdog only decides *when*, and records every restart in
:attr:`restarts`.

Like the detector, ticks are plain engine callbacks with zero simulated
cost — enabling the watchdog never perturbs a fault-free run.
"""

from typing import Dict, List

from repro.kernel.timerwheel import PeriodicTimer

#: check period (µs of simulated time)
PERIOD_US = 50_000.0


class Watchdog:
    """Periodic worker-liveness checks with automatic restart."""

    def __init__(self, proxy, detector=None) -> None:
        self.proxy = proxy
        self.engine = proxy.engine
        self.detector = detector
        #: JSON-ready restart records, in simulated order
        self.restarts: List[Dict] = []
        self.checks = 0
        self._timer = PeriodicTimer(self.engine, PERIOD_US, self._tick)

    # ------------------------------------------------------------------
    def start(self) -> "Watchdog":
        self._timer.start()
        return self

    def stop(self) -> None:
        self._timer.stop()

    # ------------------------------------------------------------------
    def _deadlocked_workers(self) -> set:
        """Worker indices appearing in currently active wait-for cycles."""
        if self.detector is None:
            return set()
        indices = set()
        for members in self.detector.active:
            for member in members:
                if member.startswith("worker-"):
                    indices.add(int(member.split("-", 1)[1]))
        return indices

    def _tick(self) -> None:
        self.checks += 1
        deadlocked = self._deadlocked_workers()
        for index, proc in self.proxy.worker_processes():
            if not proc.alive:
                self._restart(index, "crash")
            elif index in deadlocked:
                self._restart(index, "deadlock")

    def _restart(self, index: int, reason: str) -> None:
        info = self.proxy.restart_worker(index) or {}
        record = {"t_us": self.engine.now, "worker": index,
                  "reason": reason}
        record.update(info)
        self.restarts.append(record)
        if self.proxy.probe is not None:
            self.proxy.probe.instant("worker_restart", cat="faults",
                                     who="watchdog", worker=index,
                                     reason=reason)

    # ------------------------------------------------------------------
    def gauge_probes(self) -> Dict[str, object]:
        """Sampler probes (see :mod:`repro.obs.metrics`)."""
        return {"workers_restarted": lambda: float(len(self.restarts))}
