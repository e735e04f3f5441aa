"""The LAN: machines joined by a switch.

Delivery time for a payload of ``size`` bytes from machine A to machine B:

    depart = max(now, A's egress-free time) + size / bandwidth
    arrive = depart + one-way latency (plus optional jitter)

Egress serialization makes a machine's NIC a FIFO resource, so a gigabit
link saturates realistically under the paper's ~100 MB/s message load.
An optional uniform loss rate supports loss tests; the primary loss
mechanism remains receive-buffer overflow at the endpoints.

Two invariants the delivery path maintains:

- **Loss happens at the switch, after the NIC.**  A dropped packet still
  consumed the sender's egress serialization time (the frame was
  transmitted; the switch discarded it), so lossy runs account sender
  bandwidth exactly like lossless ones.
- **A (src, dst) path never reorders.**  The switch forwards each pair's
  frames down one FIFO path, so even with jitter a later packet may not
  arrive before an earlier one — TCP bytestreams (and SCTP ordered
  streams) rely on this.  Jitter therefore raises a per-pair arrival
  floor instead of drawing independent per-packet delays.
"""

from typing import Callable, Dict, Tuple

from repro.sim.engine import Engine

#: link bandwidth, bytes per µs (1 Gb/s)
BANDWIDTH_BYTES_PER_US = 125.0


class Fabric:
    """A star-topology switched network."""

    def __init__(
        self,
        engine: Engine,
        latency_us: float = 50.0,
        jitter_us: float = 0.0,
        loss_rate: float = 0.0,
        rng=None,
    ) -> None:
        self.engine = engine
        self.latency_us = latency_us
        self.jitter_us = jitter_us
        self.loss_rate = loss_rate
        self.rng = rng
        self.machines: Dict[str, object] = {}
        self._egress_free: Dict[str, float] = {}
        #: per-(src, dst) monotonic arrival floor (FIFO path)
        self._order_floor: Dict[Tuple[str, str], float] = {}
        #: statistics
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
        """Schedule ``deliver_fn(*args)`` at the destination's arrival time.

        Loss (if configured) silently drops the delivery, exactly as a
        switch drop would: the sender learns nothing — but only *after*
        the NIC serialized the frame, so egress accounting is identical
        for delivered and dropped packets.
        """
        if dst_addr not in self.machines:
            raise KeyError(f"no machine at address {dst_addr!r}")
        self.packets_sent += 1
        self.bytes_sent += size
        now = self.engine.now
        depart = (max(now, self._egress_free[src_addr])
                  + size / BANDWIDTH_BYTES_PER_US)
        self._egress_free[src_addr] = depart
        if self.loss_rate > 0.0 and self.rng is not None:
            if self.rng.random() < self.loss_rate:
                self.packets_lost += 1
                return
        arrive = depart + self.latency_us
        if self.jitter_us > 0.0 and self.rng is not None:
            arrive += self.rng.uniform(0.0, self.jitter_us)
        pair = (src_addr, dst_addr)
        floor = self._order_floor.get(pair, 0.0)
        if arrive < floor:
            arrive = floor
        else:
            self._order_floor[pair] = arrive
        self.engine.schedule_at(arrive, deliver_fn, *args)

    def __repr__(self) -> str:
        return (f"<Fabric machines={sorted(self.machines)} "
                f"latency={self.latency_us}us>")
