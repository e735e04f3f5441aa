"""SCTP: message-based, connection-oriented transport (§6).

The paper's discussion argues SCTP removes OpenSER's TCP pain because:

- associations are managed *in the kernel* — the application never passes
  descriptors around or sweeps for idle connections;
- messages are atomic — any worker may receive from the one-to-many
  socket, and sends need no user-level locking.

We model a one-to-many SCTP socket: a single message queue fed by every
association, with associations auto-created on first contact (implicit
association setup, as RFC 4960 one-to-many sockets do).
"""

from typing import Dict, Tuple

from repro.kernel.sockets import DatagramBuffer
from repro.sim.events import Event, Signal
from repro.sim.primitives import Wait

CTRL_CHUNK_SIZE = 66
MESSAGE_OVERHEAD = 44  # IP + SCTP common header + DATA chunk header


class SctpAssociation:
    """One kernel-managed association on a one-to-many socket."""

    __slots__ = ("endpoint", "remote_addr", "remote_port", "established",
                 "ready", "alive", "messages_sent", "messages_received")

    def __init__(self, endpoint: "SctpEndpoint", remote_addr: str,
                 remote_port: int) -> None:
        self.endpoint = endpoint
        self.remote_addr = remote_addr
        self.remote_port = remote_port
        self.established = False
        self.ready = Event(endpoint.machine.engine, name="sctp.assoc")
        self.alive = True
        self.messages_sent = 0
        self.messages_received = 0

    @property
    def key(self) -> Tuple[str, int]:
        return (self.remote_addr, self.remote_port)


class SctpEndpoint:
    """A bound one-to-many SCTP socket."""

    def __init__(self, machine, port: int, rcvbuf_messages: int = 1024) -> None:
        if port in machine.sctp_binds:
            raise OSError(f"{machine.name}: SCTP port {port} already bound")
        self.machine = machine
        self.port = port
        self.buffer = DatagramBuffer(machine.engine, capacity=rcvbuf_messages,
                                     name=f"{machine.name}:sctp{port}")
        self._recv_waiters = Signal(machine.engine,
                                    name=f"{machine.name}:sctp{port}.waiters")
        self.associations: Dict[Tuple[str, int], SctpAssociation] = {}
        machine.sctp_binds[port] = self
        self.sent = 0
        self.received = 0

    # -- poller source protocol ----------------------------------------
    def readable(self) -> bool:
        return self.buffer.readable()

    @property
    def readable_signal(self):
        return self.buffer.readable_signal

    # -- association management -----------------------------------------
    def association_to(self, remote_addr: str,
                       remote_port: int) -> SctpAssociation:
        """Get or create the association for a peer (implicit setup)."""
        key = (remote_addr, remote_port)
        assoc = self.associations.get(key)
        if assoc is None:
            assoc = SctpAssociation(self, remote_addr, remote_port)
            self.associations[key] = assoc
        return assoc

    def connect(self, remote_addr: str, remote_port: int):
        """Generator: explicitly establish an association (one RTT)."""
        assoc = self.association_to(remote_addr, remote_port)
        if assoc.established:
            return assoc
        fabric = self.machine.fabric
        fabric.deliver(self.machine.address, remote_addr, CTRL_CHUNK_SIZE,
                       self._init_arrive, fabric, assoc, remote_addr,
                       remote_port)
        yield Wait(assoc.ready)
        return assoc

    def _init_arrive(self, fabric, client_assoc: SctpAssociation,
                     remote_addr: str, remote_port: int) -> None:
        server = fabric.machine(remote_addr)
        endpoint = server.sctp_binds.get(remote_port)
        if endpoint is None:
            return  # ABORT; the client's Event never fires (caller times out)
        server_assoc = endpoint.association_to(self.machine.address, self.port)
        server_assoc.established = True
        if not server_assoc.ready.fired:
            server_assoc.ready.fire(True)
        fabric.deliver(remote_addr, self.machine.address, CTRL_CHUNK_SIZE,
                       self._established, client_assoc)

    @staticmethod
    def _established(assoc: SctpAssociation) -> None:
        assoc.established = True
        if not assoc.ready.fired:
            assoc.ready.fire(True)

    # -- messaging ----------------------------------------------------------
    def sendmsg(self, assoc: SctpAssociation, payload: str) -> None:
        """Atomic message send on an established association."""
        if not assoc.established or not assoc.alive:
            raise OSError("sendmsg on unestablished association")
        fabric = self.machine.fabric
        fabric.deliver(self.machine.address, assoc.remote_addr,
                       len(payload) + MESSAGE_OVERHEAD,
                       self._message_arrive, fabric, assoc, payload)
        assoc.messages_sent += 1
        self.sent += 1

    def _message_arrive(self, fabric, from_assoc: SctpAssociation,
                        payload: str) -> None:
        server = fabric.machine(from_assoc.remote_addr)
        endpoint = server.sctp_binds.get(from_assoc.remote_port)
        if endpoint is None:
            return
        peer_assoc = endpoint.association_to(self.machine.address, self.port)
        peer_assoc.established = True  # implicit setup piggybacks on data
        peer_assoc.messages_received += 1
        if endpoint.buffer.push((peer_assoc, payload)):
            endpoint._recv_waiters.fire_one()

    def recvmsg(self):
        """Generator: block for the next (association, payload) message.

        Each message wakes exactly one of the blocked receivers, so
        symmetric workers share the socket without a thundering herd.
        """
        while not self.buffer.queue:
            yield Wait(self._recv_waiters)
        self.received += 1
        return self.buffer.pop()

    def close(self) -> None:
        for assoc in self.associations.values():
            assoc.alive = False
        self.machine.sctp_binds.pop(self.port, None)
