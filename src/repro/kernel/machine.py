"""A simulated host: cores + kernel state + network identity.

The testbed (§4.1) has one 4-core Opteron server and three 2-core client
machines.  Server processes are CPU-scheduled
(:class:`~repro.kernel.scheduler.KernelProcess`); the paper verified the
clients "were never the bottleneck", so client-side actors may instead be
spawned uncontended via :meth:`Machine.spawn_light`.
"""

from typing import Iterator, Optional

from repro.kernel.fdtable import FdTable
from repro.kernel.scheduler import KernelProcess, Scheduler
from repro.kernel.sockets import PortAllocator
from repro.sim.engine import Engine
from repro.sim.process import SimProcess


class Machine:
    """One host in the testbed."""

    def __init__(
        self,
        engine: Engine,
        name: str,
        n_cores: int = 4,
        probe=None,
        fd_limit: int = 1024,
        ephemeral_ports: int = 28232,
        time_wait_us: float = 60_000_000.0,
    ) -> None:
        self.engine = engine
        self.name = name
        self.address = name  # the fabric addresses machines by name
        #: optional :class:`~repro.obs.probe.Probe`, shared testbed-wide;
        #: the proxy and the phones on this machine read it here
        self.probe = probe
        self.scheduler = Scheduler(engine, n_cores=n_cores, probe=probe)
        self.fd_limit = fd_limit
        self.tcp_ports = PortAllocator(
            engine, lo=32768, hi=32768 + ephemeral_ports,
            time_wait_us=time_wait_us, name=f"{name}.tcp-ports")
        #: the network fabric attaches itself here
        self.fabric = None
        #: per-transport demux tables, managed by the net layer
        self.udp_binds = {}
        self.tcp_listeners = {}
        self.sctp_binds = {}

    # ------------------------------------------------------------------
    # processes
    # ------------------------------------------------------------------
    def spawn(self, body: Iterator, name: str, nice: int = 0) -> KernelProcess:
        """A CPU-scheduled process with its own descriptor table."""
        proc = self.scheduler.spawn(body, name=f"{self.name}/{name}", nice=nice)
        proc.fdtable = FdTable(limit=self.fd_limit, owner=proc.name)
        return proc

    def spawn_light(self, body: Iterator, name: str) -> SimProcess:
        """An uncontended process (for never-the-bottleneck clients)."""
        return SimProcess(self.engine, body, name=f"{self.name}/{name}")

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def cpu_utilization(self, since_busy_us: float, window_us: float) -> float:
        """Utilization over a window given a busy-time snapshot taken at
        the window start (see :meth:`Scheduler.total_busy_us`)."""
        if window_us <= 0:
            return 0.0
        busy = self.scheduler.total_busy_us() - since_busy_us
        return busy / (window_us * len(self.scheduler.cores))
