"""Shared scaffolding for the proxy architectures."""

from typing import List, Optional

from repro.overload import build_controller
from repro.proxy.core import ProxyCore
from repro.proxy.costs import CostModel
from repro.proxy.stats import ProxyStats
from repro.proxy.txn_table import TimerList, TransactionTable
from repro.sim.primitives import Sleep
from repro.sip.location import LocationService


class BaseProxyServer:
    """State common to every architecture: the SIP core and its shared
    (shm) structures, worker spawn/restart, and the
    retransmission/GC timer process."""

    #: worker ``index`` runs as process ``f"{worker_stem}-{index}"``
    worker_stem = "worker"

    def __init__(self, machine, config, costs: Optional[CostModel] = None):
        config.validate()
        self.machine = machine
        self.engine = machine.engine
        self.config = config
        self.costs = costs or CostModel()
        self.stats = ProxyStats()
        self.location = LocationService()
        #: the testbed's probe, read off the machine (None = unobserved)
        self.probe = probe = machine.probe
        self.txn_table = TransactionTable(self.costs)
        self.timer_list = TimerList(self.costs)
        self.core = ProxyCore(self.engine, config, self.costs, self.location,
                              self.txn_table, self.timer_list, self.stats,
                              via_host=machine.name)
        self.core.probe = probe
        self.txn_table.lock.probe = self.timer_list.lock.probe = probe
        #: overload controller ("none" → None; see :mod:`repro.overload`)
        self.controller = build_controller(config.overload_controller)
        self.core.controller = self.controller
        self.processes: List = []
        #: the worker processes by index (a subset of :attr:`processes`)
        self.workers: List = []
        self.started = False

    # ------------------------------------------------------------------
    def start(self) -> "BaseProxyServer":
        """Spawn and start every process of this architecture."""
        if self.started:
            raise RuntimeError("proxy already started")
        self.started = True
        self._spawn_processes()
        for proc in self.processes:
            proc.start()
        if self.controller is not None:
            # Bound after the transports built their receive machinery,
            # so the occupancy signal can see the queue-fill probe.
            self.controller.bind(self)
        return self

    def _spawn_processes(self) -> None:
        """Workers in index order, then the timer process.  Spawn order
        is start order and feeds the scheduler's tie-breaks, so flavors
        with a connection manager spawn it first and then call this."""
        for index in range(self.config.workers):
            self.workers.append(self._spawn_worker(index))
        self.processes.extend(self.workers)
        self.processes.append(self.machine.spawn(self._timer_body(),
                                                 "timer-proc"))

    def _spawn_worker(self, index: int):
        return self.machine.spawn(self._worker_body(index),
                                  f"{self.worker_stem}-{index}")

    def _worker_body(self, index: int):
        """Generator: worker ``index``'s event loop."""
        raise NotImplementedError

    def stop(self) -> None:
        if self.controller is not None:
            self.controller.stop()
        for proc in self.processes:
            proc.kill()

    def queue_fill(self) -> float:
        """Receive-queue fill fraction in [0, 1] for the overload
        controllers' panic signal; transports with a meaningful receive
        queue override this."""
        return 0.0

    # ------------------------------------------------------------------
    # fault-injection / watchdog surface (see :mod:`repro.faults`)
    # ------------------------------------------------------------------
    def worker_processes(self):
        """``[(index, KernelProcess), ...]`` for the current workers."""
        return list(enumerate(self.workers))

    def ipc_topology(self):
        """``[(endpoint, owner, peer), ...]`` for the deadlock detector:
        ``owner`` blocked on ``endpoint`` waits on ``peer``.  Empty for
        architectures without blocking IPC."""
        return []

    def crash_worker(self, index: int):
        """Fault injection: kill worker ``index`` outright (no cleanup —
        detecting and repairing the damage is the watchdog's job)."""
        for i, proc in self.worker_processes():
            if i == index:
                proc.kill()
                return proc
        raise ValueError(f"no worker {index} to crash")

    def restart_worker(self, index: int):
        """Replace a dead or deadlocked worker: reap the process, clean up
        what it held (:meth:`_reap_worker`), spawn a namesake successor
        and give it back the dead worker's load (:meth:`_rehome`).
        Returns a JSON-ready summary of the repair."""
        who = f"{self.worker_stem}-{index}"
        old = self.workers[index]
        old.kill()
        # kill() closes the generator, so finally-blocks normally release
        # any held spinlock; a worker suspended *inside* acquire/release
        # cannot run its cleanup, so force-break the lock like a robust
        # futex would.
        for lock in self._shared_locks():
            if lock.held and lock.owner == who:
                lock.release()
        self._reap_worker(index, old)
        if self.probe is not None:
            # The dead worker never ran its ctx_end; without this the
            # successor (same process name) would inherit a stale trace id.
            self.probe.ctx_end(f"{self.machine.name}/{who}")
        proc = self._spawn_worker(index)
        self.workers[index] = proc
        self.processes[self.processes.index(old)] = proc
        proc.start()
        self.stats.workers_restarted += 1
        return self._rehome(index)

    def _shared_locks(self) -> List:
        """Every spinlock a worker can die holding."""
        return [self.txn_table.lock, self.timer_list.lock]

    def _reap_worker(self, index: int, old) -> None:
        """Release what the dead worker process held."""
        old.fdtable.close_all()

    def _rehome(self, index: int) -> dict:
        """Hand the dead worker's connections to its successor.  Workers
        symmetric on one socket hold none: its backlog carries over."""
        return {}

    # ------------------------------------------------------------------
    # the timer process (§3: essential for UDP, superfluous-but-present
    # for TCP)
    # ------------------------------------------------------------------
    def _timer_body(self):
        probe = self.probe
        who = f"{self.machine.name}/timer-proc"
        while True:
            yield Sleep(self.config.timer_tick_us)
            # The limit must outrun the insertion rate (one rtx + one GC
            # entry per transaction) or the expired backlog — and with it
            # the transaction table — grows without bound.
            span = (probe.begin("timer_fire", cat="kernel", who=who)
                    if probe is not None else None)
            actions = yield from self.core.timer_pass(limit=8192)
            if span is not None:
                probe.end(span.set(retransmits=len(actions)))
            for action in actions:
                yield from self._timer_send(action)

    def _timer_send(self, action):
        """Generator: transmit a retransmission.  Reliable transports
        only ever queue GC entries (§3.1: the timer process is
        "superfluous"), so nothing should reach this default."""
        self.stats.send_failures += 1
        yield from ()
