"""The §4.1 testbed: one 4-core server, three client machines, gigabit LAN.

:class:`Testbed` wires together the engine, the fabric, the machines and
(when anything is observed) the one :class:`~repro.obs.probe.Probe` they
share, leaving proxy/workload construction to
:func:`repro.proxy.build_proxy` and :mod:`repro.clients`.
"""

from typing import List

from repro.kernel.machine import Machine
from repro.net.fabric import Fabric
from repro.obs.probe import Probe
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams

SERVER_NAME = "server"
CLIENT_NAMES = ("client1", "client2", "client3")


class Testbed:
    """The paper's hardware, in simulation."""

    __test__ = False  # not a pytest collection target

    def __init__(
        self,
        seed: int = 0,
        server_fd_limit: int = 16384,
        profile: bool = False,
        trace: bool = False,
        causal: bool = False,
    ) -> None:
        self.engine = Engine()
        self.rng = RngStreams(seed)
        #: the instrumentation seam every component reads; None when
        #: nothing is observed (never a probe with all three sinks off)
        self.probe = probe = (Probe(self.engine, profile, trace, causal)
                              if profile or trace or causal else None)
        #: the probe's sinks by name (each None when that observer is off)
        self.profiler = probe.profiler if probe is not None else None
        self.tracer = probe.tracer if probe is not None else None
        self.causal = probe.causal if probe is not None else None
        # Fabric defaults: the gigabit switch (50 µs one way, 125 bytes/µs).
        self.fabric = Fabric(self.engine)
        self.fabric.probe = probe
        # Machine defaults: 4 cores, 2 ms quantum, 60 s TIME_WAIT.
        self.server = Machine(self.engine, SERVER_NAME, probe=probe,
                              fd_limit=server_fd_limit)
        self.fabric.attach(self.server)
        self.clients: List[Machine] = []
        for name in CLIENT_NAMES:
            client = Machine(self.engine, name, n_cores=2, probe=probe)
            self.fabric.attach(client)
            self.clients.append(client)

    def client_for(self, index: int) -> Machine:
        """Round-robin phones across the client machines (§4.2)."""
        return self.clients[index % len(self.clients)]

    def run(self, until_us: float) -> float:
        return self.engine.run(until=until_us)
