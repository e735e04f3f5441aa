"""UDP: connectionless, message-based transport.

The two properties the paper leans on (§3.2):

- *message-based*: a receive returns a whole datagram or nothing, so any
  number of worker processes can receive from the same socket without
  synchronizing, and sends never interleave;
- *connectionless / unreliable*: no per-peer state, and overload shows up
  as receive-buffer drops that SIP-level timers must repair.
"""

from typing import Optional

from repro.kernel.sockets import DatagramBuffer
from repro.net.packet import Datagram
from repro.sim.events import Signal
from repro.sim.primitives import Wait


class UdpEndpoint:
    """A bound UDP socket.

    Many processes may block in :meth:`recvfrom` concurrently (OpenSER's
    symmetric workers all do); each delivered datagram wakes them all and
    exactly one wins, the rest re-block.
    """

    def __init__(self, machine, port: int, rcvbuf_datagrams: int = 512) -> None:
        if port in machine.udp_binds:
            raise OSError(f"{machine.name}: UDP port {port} already bound")
        self.machine = machine
        self.port = port
        self.buffer = DatagramBuffer(machine.engine, capacity=rcvbuf_datagrams,
                                     name=f"{machine.name}:udp{port}")
        #: wake-one queue so a datagram wakes exactly one blocked receiver
        self._recv_waiters = Signal(machine.engine,
                                    name=f"{machine.name}:udp{port}.waiters")
        machine.udp_binds[port] = self
        self.sent = 0
        self.received = 0

    # -- poller source protocol ----------------------------------------
    def readable(self) -> bool:
        return self.buffer.readable()

    @property
    def readable_signal(self):
        return self.buffer.readable_signal

    # -- operations -------------------------------------------------------
    def sendto(self, payload: str, dst_addr: str, dst_port: int) -> None:
        """Fire-and-forget datagram send (never blocks)."""
        dgram = Datagram(self.machine.address, self.port, dst_addr, dst_port,
                         payload)
        fabric = self.machine.fabric
        probe = fabric.probe
        if probe is not None:
            dgram.trace_id = probe.sniff(payload)
            dgram.sent_at = fabric.engine.now
        fabric.deliver(self.machine.address, dst_addr, dgram.size,
                       self._arrive, fabric, dgram)
        self.sent += 1

    @staticmethod
    def _arrive(fabric, dgram: Datagram) -> None:
        machine = fabric.machine(dgram.dst_addr)
        endpoint = machine.udp_binds.get(dgram.dst_port)
        if endpoint is None:
            return  # ICMP port unreachable, which UDP senders ignore
        if endpoint.buffer.push(dgram):
            if dgram.trace_id is not None:
                # Only a probe's sniff tags a datagram.
                dgram.queued_at = fabric.engine.now
                fabric.probe.note(dgram.trace_id, "network", "fabric",
                                  dgram.sent_at, dgram.queued_at)
            endpoint._recv_waiters.fire_one()
        elif dgram.trace_id is not None:
            fabric.probe.count("udp.tagged_drops")

    def recvfrom(self):
        """Generator: block until a datagram arrives; returns it whole.

        Concurrent receivers queue FIFO and each datagram wakes exactly
        one of them (as the kernel does for processes blocked in
        ``recvfrom`` on a shared socket).
        """
        while not self.buffer.queue:
            yield Wait(self._recv_waiters)
        return self.try_recvfrom()

    def try_recvfrom(self) -> Optional[Datagram]:
        if not self.buffer.queue:
            return None
        self.received += 1
        dgram = self.buffer.pop()
        if dgram.queued_at is not None:
            self._note_sockq(dgram)
        return dgram

    def _note_sockq(self, dgram: Datagram) -> None:
        self.machine.fabric.probe.note(
            dgram.trace_id, "sockq", f"{self.machine.name}:udp",
            dgram.queued_at, self.machine.engine.now)

    @property
    def drops(self) -> int:
        return self.buffer.drops

    def close(self) -> None:
        self.machine.udp_binds.pop(self.port, None)
