"""TCP: connection-oriented, reliable bytestream transport.

Modeled behaviours the paper depends on:

- **handshake + accept queue** — connections cost a round trip and must be
  accepted by a process (OpenSER's supervisor);
- **bytestream, not messages** — receivers get byte runs and must frame
  SIP messages themselves, which is why only one worker may read a
  connection (§3.1);
- **flow control** — senders block when the peer's receive buffer is full;
- **teardown** — FIN/EOF, with the active closer's ephemeral port held in
  TIME_WAIT (the §4.3 starvation ingredient).

Packet loss and retransmission are internal to TCP and invisible to the
application except as added latency; we model TCP as reliable and in-order
(the paper's LAN saw no meaningful loss) and let the *costs* of TCP
processing live in the proxy cost model.
"""

import collections
import enum
import sys
from typing import Optional

from repro.kernel.sockets import StreamBuffer
from repro.sim.events import Event, Signal
from repro.sim.primitives import Wait

#: on-wire sizes for control segments and per-segment header overhead
CTRL_SEGMENT_SIZE = 66
HEADER_OVERHEAD = 66
MSS = 1448
#: per-connection receive buffer (the Linux default rmem of the era)
RCVBUF_BYTES = 65536
#: what every connection's receive buffer and readable signal are called;
#: the connection's own :attr:`TcpConn.name` is built on first use
_RECV_BUFFER_NAME = "tcp.rcvbuf"


class TcpError(OSError):
    """Base class for TCP-level failures."""


class ConnectionRefusedError_(TcpError):
    """SYN answered with RST (no listener, or backlog full)."""


class ConnectionResetError_(TcpError):
    """Operation on a connection that is gone."""


class TcpState(enum.Enum):
    SYN_SENT = "syn-sent"
    ESTABLISHED = "established"
    FIN_SENT = "fin-sent"       # we closed, peer has not
    CLOSE_WAIT = "close-wait"   # peer closed, we have not
    CLOSED = "closed"


class TcpListener:
    """A listening socket with a bounded accept queue."""

    __slots__ = ("machine", "port", "backlog", "accept_queue",
                 "readable_signal", "accepted", "refused")

    def __init__(self, machine, port: int, backlog: int = 128) -> None:
        if port in machine.tcp_listeners:
            raise OSError(f"{machine.name}: TCP port {port} already listening")
        self.machine = machine
        self.port = port
        self.backlog = backlog
        self.accept_queue = []
        self.readable_signal = Signal(machine.engine,
                                      name=f"{machine.name}:tcp{port}.accept")
        machine.tcp_listeners[port] = self
        self.accepted = 0
        self.refused = 0

    # -- poller source protocol ----------------------------------------
    def readable(self) -> bool:
        return bool(self.accept_queue)

    # -- operations -------------------------------------------------------
    def accept(self):
        """Generator: block until a completed connection is available."""
        while not self.accept_queue:
            yield Wait(self.readable_signal)
        return self.try_accept()

    def try_accept(self) -> Optional["TcpConn"]:
        if not self.accept_queue:
            return None
        self.accepted += 1
        return self.accept_queue.pop(0)

    def close(self) -> None:
        self.machine.tcp_listeners.pop(self.port, None)


class TcpConn:
    """One endpoint of an established (or in-progress) connection."""

    __slots__ = ("machine", "engine", "local_port", "remote_addr",
                 "remote_port", "initiated", "state", "recv_buffer", "peer",
                 "connected", "error", "in_flight", "sent_fin",
                 "received_fin", "fin_first", "finalized", "bytes_sent",
                 "bytes_received", "_causal_marks", "_sockq_marks")

    def __init__(self, machine, local_port: int, remote_addr: str,
                 remote_port: int, initiated: bool) -> None:
        self.machine = machine
        self.engine = machine.engine
        self.local_port = local_port
        self.remote_addr = remote_addr
        self.remote_port = remote_port
        self.initiated = initiated
        self.state = TcpState.SYN_SENT if initiated else TcpState.ESTABLISHED
        self.recv_buffer = StreamBuffer(
            machine.engine, capacity_bytes=RCVBUF_BYTES,
            name=_RECV_BUFFER_NAME)
        self.peer: Optional["TcpConn"] = None
        #: fired by the handshake's outcome; the accepting side is born
        #: ESTABLISHED, so only the initiator has one
        self.connected: Optional[Event] = (
            Event(machine.engine, name="tcp.connected") if initiated else None)
        self.error: Optional[TcpError] = None
        self.in_flight = 0
        self.sent_fin = False
        self.received_fin = False
        self.fin_first = False  # were we the active closer?
        self.finalized = False
        self.bytes_sent = 0
        self.bytes_received = 0
        #: causal-tracing byte-offset markers, created lazily so untraced
        #: runs never allocate them: ``_causal_marks`` holds
        #: (bytes_sent threshold, trace id, send time) for messages this
        #: side shipped; ``_sockq_marks`` holds (stream offset, trace id,
        #: arrival time) for messages fully landed in our receive buffer
        self._causal_marks = None
        self._sockq_marks = None

    @property
    def name(self) -> str:
        """``host:port->host:port``, formatted on demand: most
        connections are never named.  Interned, so every causal ``sockq``
        segment of a connection shares one string."""
        return sys.intern(f"{self.machine.name}:{self.local_port}->"
                          f"{self.remote_addr}:{self.remote_port}")

    # -- poller source protocol ----------------------------------------
    def readable(self) -> bool:
        return self.recv_buffer.readable()

    @property
    def readable_signal(self):
        return self.recv_buffer.readable_signal

    @property
    def established(self) -> bool:
        return self.state in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT)

    @property
    def open_for_send(self) -> bool:
        return (self.state in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT)
                and self.peer is not None)

    # -- sending ----------------------------------------------------------
    def _flow_space(self) -> int:
        if self.peer is None:
            return 0
        return self.peer.recv_buffer.space() - self.in_flight

    def send(self, data: str):
        """Generator: block under flow control, then ship the bytes."""
        while not self.try_send(data):
            if not self.open_for_send:
                raise ConnectionResetError_(
                    f"send on {self.state.value} connection")
            # Flow-controlled: the peer's receive window is full, so
            # the wait is network time, not local queueing.
            yield Wait(self.peer.recv_buffer.writable_signal, "network")
        return len(data)

    def try_send(self, data: str) -> bool:
        """Non-blocking send: ships all or nothing."""
        if not self.open_for_send or self._flow_space() < len(data):
            return False
        self.in_flight += len(data)
        self.bytes_sent += len(data)
        fabric = self.machine.fabric
        if fabric.probe is not None:
            self._mark_send(fabric.probe, data)
        offset = 0
        while offset < len(data):
            chunk = data[offset:offset + MSS]
            offset += len(chunk)
            fabric.deliver(self.machine.address, self.remote_addr,
                           len(chunk) + HEADER_OVERHEAD,
                           self._segment_arrive, chunk)
        return True

    def _mark_send(self, probe, data: str) -> None:
        """Tag the just-queued bytes with the message's trace id.

        The marker triggers when the peer's ``bytes_received`` reaches
        the stream offset of this message's last byte — TCP is in-order,
        so "last byte delivered" is when the whole message has crossed.
        """
        tid = probe.sniff(data)
        if tid is None:
            return
        if self._causal_marks is None:
            self._causal_marks = collections.deque()
        self._causal_marks.append((self.bytes_sent, tid, self.engine.now))

    def _segment_arrive(self, chunk: str) -> None:
        self.in_flight -= len(chunk)
        peer = self.peer
        if peer is None or peer.finalized:
            return  # data raced a teardown; receiver is gone
        peer.bytes_received += len(chunk)
        peer.recv_buffer.push(chunk)
        marks = self._causal_marks
        if marks:  # only a probe's sniff creates them
            note = self.machine.fabric.probe.note
            now = self.engine.now
            while marks and marks[0][0] <= peer.bytes_received:
                offset, tid, sent_at = marks.popleft()
                note(tid, "network", "fabric", sent_at, now)
                if peer._sockq_marks is None:
                    peer._sockq_marks = collections.deque()
                peer._sockq_marks.append((offset, tid, now))

    # -- receiving ----------------------------------------------------------
    def recv(self):
        """Generator: block until bytes (or EOF), then return everything
        buffered; returns '' at EOF."""
        while not self.recv_buffer.readable():
            yield Wait(self.recv_buffer.readable_signal)
        return self.try_recv()

    def try_recv(self, max_bytes: int = 1 << 20) -> Optional[str]:
        """Non-blocking read: None when nothing available, '' at EOF."""
        if not self.recv_buffer.readable():
            return None
        data = self.recv_buffer.read(max_bytes)
        if self._sockq_marks:
            self._drain_sockq_marks()
        return data

    def _drain_sockq_marks(self) -> None:
        """Emit socket-queue segments for messages the reader consumed."""
        note = self.machine.fabric.probe.note
        marks = self._sockq_marks
        consumed = self.recv_buffer.consumed
        now = self.engine.now
        while marks and marks[0][0] <= consumed:
            __, tid, arrived_at = marks.popleft()
            note(tid, "sockq", self.name, arrived_at, now)

    # -- teardown ----------------------------------------------------------
    def close(self) -> None:
        """Send FIN (idempotent); full teardown when both sides have."""
        if self.sent_fin:
            return
        self.sent_fin = True
        self.fin_first = not self.received_fin
        self.state = (TcpState.CLOSED if self.received_fin
                      else TcpState.FIN_SENT)
        peer = self.peer
        if peer is not None:
            self.machine.fabric.deliver(
                self.machine.address, self.remote_addr, CTRL_SEGMENT_SIZE,
                peer._fin_arrive)
        if self.received_fin or peer is None:
            self._finalize()

    def _fin_arrive(self) -> None:
        if self.received_fin:
            return
        self.received_fin = True
        # The peer sent its last segment before this FIN and the fabric
        # delivers in order, so it needs its link to us no more.  Dropping
        # that link leaves no cycle between the two ends: a pair both
        # applications let go of (a phone's abandoned connection the proxy
        # closed) dies by reference count (DESIGN.md §3c).
        if self.peer is not None:
            self.peer.peer = None
        self.recv_buffer.push_eof()
        if self.sent_fin:
            self.state = TcpState.CLOSED
            self._finalize()
        else:
            self.state = TcpState.CLOSE_WAIT

    def on_last_close(self) -> None:
        """FileDescription hook: all descriptors gone => FIN."""
        self.close()

    def _finalize(self) -> None:
        if self.finalized:
            return
        self.finalized = True
        self.state = TcpState.CLOSED
        if self.initiated:
            # Ephemeral port: active closers hold it in TIME_WAIT.
            self.machine.tcp_ports.release(self.local_port,
                                           time_wait=self.fin_first)

    def _refuse(self, error: TcpError) -> None:
        self.error = error
        self.state = TcpState.CLOSED
        self.finalized = True
        if self.initiated:
            self.machine.tcp_ports.release(self.local_port, time_wait=False)
        self.connected.fire(False)


def connect(machine, dst_addr: str, dst_port: int):
    """Generator: open a connection from ``machine`` to a listener.

    Allocates an ephemeral local port (raising
    :class:`~repro.kernel.sockets.PortExhaustedError` when the pool is
    dry), performs the handshake, and returns an ESTABLISHED
    :class:`TcpConn`.  Raises :class:`ConnectionRefusedError_` when no one
    is listening or the accept backlog is full.
    """
    local_port = machine.tcp_ports.allocate()
    conn = TcpConn(machine, local_port, dst_addr, dst_port, initiated=True)
    machine.fabric.deliver(machine.address, dst_addr, CTRL_SEGMENT_SIZE,
                           _syn_arrive, machine.fabric, conn, dst_addr,
                           dst_port)
    yield Wait(conn.connected)
    if conn.error is not None:
        raise conn.error
    return conn


def _syn_arrive(fabric, client_conn: TcpConn, dst_addr: str,
                dst_port: int) -> None:
    server = fabric.machine(dst_addr)
    listener = server.tcp_listeners.get(dst_port)
    refusal = None
    if listener is None:
        refusal = ConnectionRefusedError_(f"{dst_addr}:{dst_port}: no listener")
    elif len(listener.accept_queue) >= listener.backlog:
        listener.refused += 1
        refusal = ConnectionRefusedError_(f"{dst_addr}:{dst_port}: backlog full")
    if refusal is not None:
        fabric.deliver(dst_addr, client_conn.machine.address,
                       CTRL_SEGMENT_SIZE, client_conn._refuse, refusal)
        return
    server_conn = TcpConn(server, dst_port, client_conn.machine.address,
                          client_conn.local_port, initiated=False)
    server_conn.peer = client_conn
    listener.accept_queue.append(server_conn)
    listener.readable_signal.fire()
    fabric.deliver(dst_addr, client_conn.machine.address, CTRL_SEGMENT_SIZE,
                   _synack_arrive, client_conn, server_conn)


def _synack_arrive(client_conn: TcpConn, server_conn: TcpConn) -> None:
    client_conn.peer = server_conn
    client_conn.state = TcpState.ESTABLISHED
    client_conn.connected.fire(True)
