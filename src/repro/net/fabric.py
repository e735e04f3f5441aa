"""The LAN: machines joined by a switch.

Delivery time for a payload of ``size`` bytes from machine A to machine B:

    depart = max(now, A's egress-free time) + size / bandwidth
    arrive = depart + one-way latency

Egress serialization makes a machine's NIC a FIFO resource, so a gigabit
link saturates realistically under the paper's ~100 MB/s message load.

Two invariants the delivery path keeps without any per-pair state:

- **A (src, dst) path never reorders.**  A source's departures never
  decrease (each waits for the one before it), and the latency is one
  constant, so arrivals along a pair never decrease either; the engine
  fires equal times in scheduling order.  TCP bytestreams and SCTP
  ordered streams rely on this.
- **The switch loses nothing.**  As on the paper's switched gigabit LAN,
  a message is lost only at an endpoint, when a UDP or SCTP receive
  buffer overflows (``net/udp.py``, ``net/sctp.py``); TCP's flow control
  holds back what does not fit.
"""

from typing import Callable, Dict

from repro.sim.engine import Engine

#: link bandwidth, bytes per µs (1 Gb/s)
BANDWIDTH_BYTES_PER_US = 125.0


class Fabric:
    """A star-topology switched network."""

    def __init__(self, engine: Engine, latency_us: float = 50.0) -> None:
        self.engine = engine
        self.latency_us = latency_us
        self.machines: Dict[str, object] = {}
        self._egress_free: Dict[str, float] = {}
        #: statistics (``packets_lost`` stays 0: the switch drops nothing)
        self.packets_sent = 0
        self.packets_lost = 0
        self.bytes_sent = 0
        #: the testbed's probe (net endpoints read it off the fabric so
        #: every machine shares one trace-id space); None when unobserved
        self.probe = None

    def attach(self, machine) -> None:
        """Join a machine to the LAN (addressed by its name)."""
        if machine.name in self.machines:
            raise ValueError(f"duplicate machine name {machine.name!r}")
        self.machines[machine.name] = machine
        self._egress_free[machine.name] = 0.0
        machine.fabric = self

    def machine(self, addr: str):
        m = self.machines.get(addr)
        if m is None:
            raise KeyError(f"no machine at address {addr!r}")
        return m

    def deliver(self, src_addr: str, dst_addr: str, size: int,
                deliver_fn: Callable, *args) -> None:
        """Schedule ``deliver_fn(*args)`` at the destination's arrival time."""
        if dst_addr not in self.machines:
            raise KeyError(f"no machine at address {dst_addr!r}")
        self.packets_sent += 1
        self.bytes_sent += size
        depart = (max(self.engine.now, self._egress_free[src_addr])
                  + size / BANDWIDTH_BYTES_PER_US)
        self._egress_free[src_addr] = depart
        self.engine.schedule_at(depart + self.latency_us, deliver_fn, *args)
