"""Simulated SIP phones (UAC + UAS), one class per transport.

Phones run on the client machines with uncontended CPU ("the client
machines ... were never the bottleneck", §4.1) but speak real SIP through
real transports: a caller registers, then loops INVITE→ACK→BYE calls to
its designated callee; a callee answers INVITEs (180 then 200), absorbs
retransmissions, and acknowledges BYEs.  Every request a phone sends runs
a client transaction of :mod:`repro.sip.transaction`, and an INVITE it
answers runs a server transaction until the ACK; all their timers derive
from the proxy's T1.  A phone speaks SIP as wire text, like a scenario
load generator: :class:`~repro.sip.builder.MessageBuilder` formats what
it sends and :class:`~repro.sip.reader.PhoneMessage` reads the fields it
acts on from what it receives; only the proxy parses messages into the
full model (DESIGN.md §3c).  A BYE needs no transaction at all: nothing
indexes it, so no repeat of it could ever reach one (DESIGN.md §3c,
fourth rule).

:class:`Phone` is all of that; :class:`UdpPhone`, :class:`SctpPhone` and
:class:`TcpPhone` each add one transport's sending, receiving and state,
and :data:`PHONES` names the class for each proxy transport.
"""

from collections import deque
from typing import Deque, Dict, Optional, Tuple

from repro.kernel.sockets import PortExhaustedError
from repro.net.sctp import SctpEndpoint
from repro.net.tcp import (
    RCVBUF_BYTES,
    TcpError,
    TcpListener,
    connect as tcp_connect,
)
from repro.net.udp import UdpEndpoint
from repro.sim.events import Event, Signal
from repro.sim.primitives import Sleep, Wait
from repro.sip.builder import MessageBuilder
from repro.sip.parser import SipParseError, StreamFramer
from repro.sip.reader import PhoneMessage
from repro.sip.transaction import T1_US, ClientTransaction, ServerTransaction

_SEND_RETRY_US = 1000.0


class Phone:
    """One benchmark phone: a caller when it has a ``peer_user`` to call,
    else a callee.  A subclass names its ``transport`` (the Via token) and
    whether it is ``reliable``, and sends with :meth:`_send_text`."""

    #: thousands of phones per cell; slots keep each one small
    __slots__ = (
        "machine", "engine", "user", "domain", "port", "proxy_addr",
        "proxy_port", "peer_user", "go_event", "t1_us", "start_delay_us",
        "open_loop", "builder", "registered", "registration_failures",
        "running", "ops_completed", "calls_attempted", "calls_completed",
        "calls_failed", "retransmissions", "retransmissions_absorbed",
        "setup_latencies_us", "processing_latencies_us", "handled_ops",
        "_client_txns", "_uas_invites", "processes", "_call_procs")

    transport: str
    reliable: bool

    def __init__(
        self,
        machine,
        user: str,
        domain: str,
        port: int,
        proxy_addr: str,
        proxy_port: int,
        rng,
        peer_user: Optional[str] = None,
        go_event: Optional[Event] = None,
        t1_us: float = T1_US,
        start_delay_us: float = 0.0,
        open_loop: bool = False,
    ) -> None:
        self.machine = machine
        self.engine = machine.engine
        self.user = user
        self.domain = domain
        self.port = port
        self.proxy_addr = proxy_addr
        self.proxy_port = proxy_port
        self.peer_user = peer_user
        self.go_event = go_event
        self.t1_us = t1_us
        self.start_delay_us = start_delay_us
        self.open_loop = open_loop
        self.builder = MessageBuilder(user, domain, machine.name, port,
                                      self.transport, rng)
        # -- state -------------------------------------------------------
        self.registered = False
        self.registration_failures = 0
        self.running = True
        self.ops_completed = 0      #: caller: completed transactions
        self.calls_attempted = 0    #: caller: calls started
        self.calls_completed = 0
        self.calls_failed = 0
        self.retransmissions = 0    #: UAC request retransmissions sent
        self.retransmissions_absorbed = 0  #: callee: duplicate INVITEs seen
        #: call-setup times (INVITE sent → 2xx received), µs
        self.setup_latencies_us = []
        #: BYE round-trip times (request sent → 2xx), µs: proxy
        #: processing plus network time
        self.processing_latencies_us = []
        self.handled_ops = 0        #: callee: transactions it served
        self._client_txns: Dict[str, ClientTransaction] = {}
        #: INVITEs answered but not yet ACKed
        self._uas_invites: Dict[str, ServerTransaction] = {}
        self.processes = []
        self._call_procs = []

    # ==================================================================
    # lifecycle
    # ==================================================================
    def start(self) -> "Phone":
        self.processes.append(self.machine.spawn_light(
            self._main_body(), f"{self.user}-main").start())
        self._start_receiving()
        return self

    def _start_receiving(self) -> None:
        """Run the subclass's ``_recv_loop`` as the receive process."""
        self.processes.append(self.machine.spawn_light(
            self._recv_loop(), f"{self.user}-rx").start())

    def stop(self) -> None:
        self.running = False
        for proc in self.processes:
            proc.kill()
        for proc in self._call_procs:
            proc.kill()
        self._call_procs.clear()

    def _main_body(self):
        if self.start_delay_us > 0:
            yield Sleep(self.start_delay_us)
        yield from self._connect()
        yield from self._register()
        if self.peer_user is None or self.open_loop:
            # A callee only answers; the OpenLoopDriver injects an
            # open-loop caller's calls via start_call() at its own pace.
            return
        if self.go_event is not None:
            yield Wait(self.go_event)
        while self.running:
            yield from self._do_call()

    def start_call(self) -> None:
        """Launch one call as its own process (open-loop arrival).

        Unlike the closed loop, a new arrival never waits for earlier
        calls to finish — under overload, calls pile up in flight, which
        is exactly the regime the overload figure measures.
        """
        if not self.running:
            return
        if len(self._call_procs) >= 64:
            self._call_procs = [p for p in self._call_procs if p.alive]
        proc = self.machine.spawn_light(
            self._do_call(), f"{self.user}-call{self.calls_attempted}")
        self._call_procs.append(proc.start())

    # ==================================================================
    # transport hooks (generators; nothing to do by default)
    # ==================================================================
    def _connect(self):
        """Set the transport up before the first REGISTER."""
        return
        yield  # pragma: no cover

    def _before_call(self):
        """Whether a call can start now."""
        return True
        yield  # pragma: no cover

    def _after_call(self):
        """Run after every completed call."""
        return
        yield  # pragma: no cover

    # ==================================================================
    # registration
    # ==================================================================
    def _register(self, attempts: int = 3):
        for __ in range(attempts):
            text, branch, call_id = self.builder.register_text()
            final = yield from self._run_client_txn("REGISTER", branch,
                                                    call_id, text)
            if final is not None and 200 <= final.status < 300:
                self.registered = True
                return
            self.registration_failures += 1
        return

    # ==================================================================
    # caller side
    # ==================================================================
    def _do_call(self):
        self.calls_attempted += 1
        if not (yield from self._before_call()):
            self.calls_failed += 1
            yield Sleep(10_000.0)
            return
        builder = self.builder
        text, branch, dialog = builder.invite_text(self.peer_user)
        invite_sent_at = self.engine.now
        final = yield from self._run_client_txn("INVITE", branch,
                                                dialog.call_id, text)
        if final is None or not 200 <= final.status < 300:
            self.calls_failed += 1
            yield Sleep(10_000.0)  # brief backoff after a failed call
            return
        self.setup_latencies_us.append(self.engine.now - invite_sent_at)
        self._count_op()
        # Past the ACK a call needs only its dialog: the INVITE's text and
        # its 200 OK are not held while the BYE runs.
        dialog.confirm(final)
        self._send_text(builder.ack_text(dialog))
        text, branch = builder.bye_text(dialog)
        del final
        bye_sent_at = self.engine.now
        final = yield from self._run_client_txn("BYE", branch,
                                                dialog.call_id, text)
        if final is None or not 200 <= final.status < 300:
            self.calls_failed += 1
            return
        self.processing_latencies_us.append(self.engine.now - bye_sent_at)
        self._count_op()
        self.calls_completed += 1
        yield from self._after_call()

    def _run_client_txn(self, method: str, branch: str, call_id: str,
                        text: str):
        """Generator: run one client transaction for the request ``text``;
        returns the final response (a :class:`PhoneMessage`) or None on
        timeout."""
        done = Event(self.engine, name=f"{self.user}.txn")
        probe = self.machine.probe
        tid = f"{call_id}/{method}" if probe is not None else None
        send_fn = self._send_text
        if probe is not None:
            # Mark every send, retransmissions included, so the journey
            # window clock starts at the *first* send (earliest wins in
            # journey_windows) and duplicate marks witness timer A/E.
            def send_fn(text):
                probe.mark(tid, "uac_send", self.user)
                self._send_text(text)
        txn = ClientTransaction(self.engine, method, branch, text, send_fn,
                                self.reliable, self.t1_us,
                                on_final=done.fire)
        self._client_txns[branch] = txn
        txn.start()
        final = yield Wait(done)
        if probe is not None and final is not None:
            probe.mark(tid, "uac_final", self.user)
        self._client_txns.pop(branch, None)
        self.retransmissions += txn.retransmissions
        return final

    def _count_op(self) -> None:
        self.ops_completed += 1

    # ==================================================================
    # callee side (reactive)
    # ==================================================================
    def _dispatch(self, text: str) -> None:
        """Act on one received text.  A message is dropped where a field
        the phone acts on does not read."""
        try:
            message = PhoneMessage(text)
        except ValueError:
            return
        if message.status:
            txn = self._client_txns.get(message.branch)
            if txn is None or not txn.matches(message):
                return
            if txn.method == "INVITE" and 200 <= message.status < 300:
                try:  # the call's dialog reads the To and the Contact
                    message.to_tag()
                    message.contact_uri()
                except ValueError:
                    return
            txn.handle_response(message)
            return
        method = message.method
        if method == "INVITE":
            self._handle_invite(message)
        elif method == "ACK":
            self._handle_ack(message)
        elif method == "BYE":
            self._handle_bye(message)

    def _handle_invite(self, invite: PhoneMessage) -> None:
        call_id = invite.call_id
        existing = self._uas_invites.get(call_id)
        if existing is not None:
            self.retransmissions_absorbed += 1
            existing.handle_request_retransmission()
            return
        try:
            ringing, ok = self.builder.answer_texts(invite,
                                                    self.builder.new_tag())
        except ValueError:  # a header to copy is missing or untaggable
            return
        st = ServerTransaction(self.engine, self._send_text, self.reliable,
                               self.t1_us)
        self._uas_invites[call_id] = st
        st.respond(ringing, final=False)
        st.respond(ok, final=True)
        self._note_handled_op()

    def _handle_ack(self, ack: PhoneMessage) -> Optional[ServerTransaction]:
        """Forget the answered INVITE; returns its transaction, or None
        when the ACK matches none.  Over a reliable transport timer I is
        zero (RFC 3261 §17.2.1): no INVITE retransmission can arrive to
        absorb, so nothing of the call is kept."""
        st = self._uas_invites.pop(ack.call_id, None)
        if st is not None:
            st.handle_ack()
        return st

    def _handle_bye(self, bye: PhoneMessage) -> None:
        try:
            ok = self.builder.ok_text(bye)
        except ValueError:  # a header to copy is missing
            return
        self._send_text(ok)
        self._note_handled_op()

    def _note_handled_op(self) -> None:
        self.handled_ops += 1


class UdpPhone(Phone):
    """A phone on one UDP socket.

    An answered call keeps only its 200 OK text, for 64×T1 after the ACK
    (RFC 3261 timer I): a repeat of the INVITE may still arrive, and all
    it can get is that answer again.
    """

    __slots__ = ("socket", "_answered", "_answered_expiry")

    transport = "udp"
    reliable = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.socket = UdpEndpoint(self.machine, self.port)
        #: built by the first ACK: Call-ID → the 200 OK text of an ACKed
        #: INVITE, and a FIFO of (expiry, Call-ID), sorted because every
        #: entry lingers the same 64×T1
        self._answered: Optional[Dict[str, str]] = None
        self._answered_expiry: Optional[Deque[Tuple[float, str]]] = None

    def _recv_loop(self):
        while True:
            dgram = yield from self.socket.recvfrom()
            self._dispatch(dgram.payload)

    def _send_text(self, text: str) -> None:
        """Non-blocking send toward the proxy (transaction send_fn)."""
        self.socket.sendto(text, self.proxy_addr, self.proxy_port)

    def _handle_invite(self, invite: PhoneMessage) -> None:
        if self._answered is not None:
            self._expire_answered()
            text = self._answered.get(invite.call_id)
            if text is not None:
                self.retransmissions_absorbed += 1
                self._send_text(text)
                return
        super()._handle_invite(invite)

    def _handle_ack(self, ack: PhoneMessage) -> None:
        st = super()._handle_ack(ack)
        if st is None:
            return
        if self._answered is None:
            self._answered = {}
            self._answered_expiry = deque()
        else:
            self._expire_answered()
        self._answered[ack.call_id] = st.last_text
        self._answered_expiry.append(
            (self.engine.now + 64.0 * self.t1_us, ack.call_id))

    def _expire_answered(self) -> None:
        """Forget the answered calls whose linger is over.  The linger is
        [ACK, ACK + 64×T1): a timer armed at the ACK would fire before
        any INVITE arriving at its expiry instant, so that one is a new
        call."""
        expiry, now = self._answered_expiry, self.engine.now
        while expiry and expiry[0][0] <= now:
            del self._answered[expiry.popleft()[1]]


class SctpPhone(Phone):
    """A phone on one SCTP endpoint, with one association to the proxy."""

    __slots__ = ("endpoint", "assoc")

    transport = "sctp"
    reliable = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.endpoint = SctpEndpoint(self.machine, self.port)
        self.assoc = None

    def _connect(self):
        self.assoc = yield from self.endpoint.connect(self.proxy_addr,
                                                      self.proxy_port)

    def _recv_loop(self):
        while True:
            __, payload = yield from self.endpoint.recvmsg()
            self._dispatch(payload)

    def _send_text(self, text: str) -> None:
        if self.assoc is not None and self.assoc.established:
            self.endpoint.sendmsg(self.assoc, text)


class TcpPhone(Phone):
    """A phone with one outbound TCP connection to the proxy.

    Everything the phone sends goes over that connection, as in the
    paper's workloads; with ``ops_per_conn`` set, it opens a *new*
    connection after that many operations and abandons the old one
    without closing it (§4.3: "the clients never closed their
    connections"), re-REGISTERing over the new connection so the proxy's
    aliases and bindings follow.  It also listens on its advertised port
    so the proxy can dial in when no live connection remains.

    It parks no process for either rare path: connections the proxy dials
    in are taken from a readiness callback on the listener, and the
    reconnect process is built by the first reconnect request (DESIGN.md
    §3c, fifth rule).
    """

    __slots__ = ("listener", "conn", "ops_per_conn", "_ops_on_conn",
                 "_reconnect_signal", "_reconnect_wanted")

    transport = "tcp"
    reliable = True

    def __init__(self, *args, ops_per_conn: Optional[int] = None,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.listener = TcpListener(self.machine, self.port)
        self.conn = None
        self.ops_per_conn = ops_per_conn
        self._ops_on_conn = 0
        #: built with the reconnect process by the first reconnect request
        #: (:meth:`_want_reconnect`)
        self._reconnect_signal: Optional[Signal] = None
        self._reconnect_wanted = False

    def _start_receiving(self) -> None:
        self.listener.readable_signal.subscribe(self._on_acceptable)

    def _connect(self):
        """Open a fresh connection to the proxy (abandoning any old one)."""
        try:
            conn = yield from tcp_connect(self.machine, self.proxy_addr,
                                          self.proxy_port)
        except (TcpError, PortExhaustedError):
            self.registration_failures += 1
            return
        self.conn = conn
        self._ops_on_conn = 0
        self._read_conn(conn)

    def _read_conn(self, conn) -> None:
        """Read ``conn`` until EOF.  The first read is a zero-delay event,
        as a reader process's first step was."""
        self.engine.schedule(0.0, _ConnReader(self, conn))

    def _on_conn_dead(self, conn) -> None:
        """The server closed a connection under us: fail anything waiting
        on it and arrange a fresh connection (as real phones do)."""
        if self.conn is not conn:
            return  # an abandoned connection finally being reaped
        for txn in list(self._client_txns.values()):
            txn.abort()
        self._want_reconnect()

    def _on_acceptable(self, _value) -> None:
        """Accept proxy-initiated connections and read them too; called by
        the listener's readable signal, where an accept process would
        have woken."""
        if not self.running:
            return  # a stopped phone accepts nothing more
        listener = self.listener
        while True:
            conn = listener.try_accept()
            if conn is None:
                break
            self._read_conn(conn)
        listener.readable_signal.subscribe(self._on_acceptable)

    def _send_text(self, text: str) -> None:
        conn = self.conn
        if conn is None or not conn.open_for_send:
            return
        if not conn.try_send(text):
            # Flow-controlled: retry shortly (phones are not the
            # bottleneck, so a plain timer retry suffices).
            self.engine.schedule(_SEND_RETRY_US, self._retry_send,
                                 conn, text)

    def _retry_send(self, conn, text: str) -> None:
        if conn.open_for_send and not conn.try_send(text):
            self.engine.schedule(_SEND_RETRY_US, self._retry_send, conn, text)

    def _before_call(self):
        """A connection that died (e.g. the overloaded server shed it) is
        re-established before calling."""
        if self.conn is not None and self.conn.open_for_send:
            return True
        yield Sleep(1000.0)
        yield from self._connect()
        yield from self._register(attempts=1)
        return self.conn is not None and self.conn.open_for_send

    def _after_call(self):
        """Rotate the connection after ``ops_per_conn`` operations; the
        old one is abandoned, never closed (§4.3) — the server's idle
        management must deal with it."""
        if self.ops_per_conn is not None and \
                self._ops_on_conn >= self.ops_per_conn:
            yield from self._connect()
            yield from self._register(attempts=1)

    def _count_op(self) -> None:
        self.ops_completed += 1
        self._ops_on_conn += 1

    def _note_handled_op(self) -> None:
        self.handled_ops += 1
        self._ops_on_conn += 1
        if (self.ops_per_conn is not None
                and self._ops_on_conn >= self.ops_per_conn
                and not self._reconnect_wanted):
            self._want_reconnect()

    def _want_reconnect(self) -> None:
        """Ask the reconnect process for a fresh connection, building it on
        the first request: its first step is the zero-delay event the
        signal's wake-up would have been."""
        self._reconnect_wanted = True
        if self._reconnect_signal is not None:
            self._reconnect_signal.fire()
            return
        self._reconnect_signal = Signal(self.engine,
                                        name=f"{self.user}.reconnect")
        self.processes.append(self.machine.spawn_light(
            self._reconnect_loop(), f"{self.user}-rc").start())

    def _reconnect_loop(self):
        """Reconnection runs in its own process, because both triggers
        (the callee's ops_per_conn rotation and a server-closed
        connection) come from synchronous dispatch paths."""
        while True:
            if not self._reconnect_wanted:
                yield Wait(self._reconnect_signal)
            self._reconnect_wanted = False
            yield from self._connect()
            yield from self._register(attempts=1)


class _ConnReader:
    """A phone's reader for one TCP connection, run from readiness
    callbacks instead of a parked process.

    Each call drains the receive buffer, frames it and dispatches the
    messages; an empty buffer subscribes the reader to the connection's
    readable signal once, where a reader process would have waited.  EOF
    or a framing error reports the connection dead and ends the reading.
    Thousands of connections a phone has abandoned stay open under churn
    (§4.3), so what each keeps is this object and its framer.
    """

    __slots__ = ("phone", "conn", "framer")

    def __init__(self, phone: TcpPhone, conn) -> None:
        self.phone = phone
        self.conn = conn
        self.framer = StreamFramer()

    def __call__(self, __=None) -> None:
        phone = self.phone
        if not phone.running:
            return  # a stopped phone reads nothing more
        conn = self.conn
        while True:
            data = conn.try_recv(RCVBUF_BYTES)
            if data is None:
                conn.readable_signal.subscribe(self)
                return
            if data == "":
                break
            try:
                texts = self.framer.feed(data)
            except SipParseError:
                break
            for text in texts:
                phone._dispatch(text)
        phone._on_conn_dead(conn)


#: the phone class for each proxy transport
PHONES = {"udp": UdpPhone, "sctp": SctpPhone, "tcp": TcpPhone,
          "tcp-threaded": TcpPhone}
