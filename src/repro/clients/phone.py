"""A simulated SIP phone (UAC + UAS).

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
full model (DESIGN.md §3c).  An answered call keeps only its 200 OK
text, over UDP and for 64×T1 (RFC 3261 timer I), and a BYE needs no
transaction at all: nothing indexes it, so no repeat of it could ever
reach one (DESIGN.md §3c, fourth rule).

TCP behaviour mirrors the paper's workloads: the phone keeps one outbound
connection to the proxy for everything it sends; with ``ops_per_conn``
set, it opens a *new* connection after that many operations and abandons
the old one without closing it (§4.3: "the clients never closed their
connections"), re-REGISTERing over the new connection so the proxy's
aliases and bindings follow.  Each phone also listens on its advertised
port so the proxy can dial in when no live connection remains.

A TCP phone parks no process for either rare path: connections the proxy
dials in are taken from a readiness callback on the listener, and the
reconnect process is built by the first reconnect request (DESIGN.md
§3c, fifth rule).
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
    """One benchmark phone."""

    #: thousands of phones per cell; slots keep each one small
    __slots__ = (
        "machine", "engine", "user", "domain", "port", "transport",
        "proxy_addr", "proxy_port", "role", "peer_user",
        "ops_per_conn", "go_event", "t1_us", "start_delay_us",
        "open_loop", "reliable", "builder", "registered",
        "registration_failures", "running", "ops_completed",
        "calls_attempted", "calls_completed", "calls_failed",
        "retransmissions", "retransmissions_absorbed", "setup_latencies_us",
        "processing_latencies_us", "handled_ops", "_ops_on_conn",
        "_client_txns", "_uas_invites", "_answered", "_answered_expiry",
        "_reconnect_signal",
        "_reconnect_wanted", "processes", "_call_procs", "socket",
        "endpoint", "assoc", "listener", "conn")

    def __init__(
        self,
        machine,
        user: str,
        domain: str,
        port: int,
        transport: str,
        proxy_addr: str,
        proxy_port: int,
        rng,
        role: str = "caller",
        peer_user: Optional[str] = None,
        ops_per_conn: Optional[int] = None,
        go_event: Optional[Event] = None,
        t1_us: float = T1_US,
        start_delay_us: float = 0.0,
        open_loop: bool = False,
    ) -> None:
        if role not in ("caller", "callee"):
            raise ValueError(f"unknown role {role!r}")
        if role == "caller" and peer_user is None:
            raise ValueError("a caller needs a peer_user")
        self.machine = machine
        self.engine = machine.engine
        self.user = user
        self.domain = domain
        self.port = port
        self.transport = transport
        self.proxy_addr = proxy_addr
        self.proxy_port = proxy_port
        self.role = role
        self.peer_user = peer_user
        self.ops_per_conn = ops_per_conn
        self.go_event = go_event
        self.t1_us = t1_us
        self.start_delay_us = start_delay_us
        self.open_loop = open_loop
        self.reliable = transport in ("tcp", "sctp")
        self.builder = MessageBuilder(user, domain, machine.name, port,
                                      transport, rng)
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
        self._ops_on_conn = 0
        self._client_txns: Dict[str, ClientTransaction] = {}
        #: INVITEs answered but not yet ACKed
        self._uas_invites: Dict[str, ServerTransaction] = {}
        #: UDP only, built by the first ACK: Call-ID → the 200 OK text of
        #: an ACKed INVITE, and a FIFO of (expiry, Call-ID), sorted
        #: because every entry lingers the same 64×T1
        self._answered: Optional[Dict[str, str]] = None
        self._answered_expiry: Optional[Deque[Tuple[float, str]]] = None
        #: built with the reconnect process by the first reconnect request
        #: (:meth:`_want_reconnect`)
        self._reconnect_signal: Optional[Signal] = None
        self._reconnect_wanted = False
        self.processes = []
        self._call_procs = []
        # -- transport plumbing -------------------------------------------
        self.socket = None
        self.endpoint = None
        self.assoc = None
        self.listener = None
        self.conn = None
        if transport == "udp":
            self.socket = UdpEndpoint(machine, port)
        elif transport == "sctp":
            self.endpoint = SctpEndpoint(machine, port)
        elif transport == "tcp":
            self.listener = TcpListener(machine, port)
        else:
            raise ValueError(f"unknown transport {transport!r}")

    # ==================================================================
    # lifecycle
    # ==================================================================
    def start(self) -> "Phone":
        spawn = self.machine.spawn_light
        self.processes.append(
            spawn(self._main_body(), f"{self.user}-main").start())
        if self.transport == "udp":
            self.processes.append(
                spawn(self._udp_recv_loop(), f"{self.user}-rx").start())
        elif self.transport == "sctp":
            self.processes.append(
                spawn(self._sctp_recv_loop(), f"{self.user}-rx").start())
        elif self.transport == "tcp":
            self.listener.readable_signal.subscribe(self._on_acceptable)
        return self

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
        yield from self._transport_setup()
        yield from self._register()
        if self.role != "caller":
            return
        if self.open_loop:
            # Open-loop callers are passive: the OpenLoopDriver injects
            # calls via start_call() at its own (Poisson) pace.
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
            self._one_call(), f"{self.user}-call{self.calls_attempted}")
        self._call_procs.append(proc.start())

    def _one_call(self):
        yield from self._do_call()

    # ==================================================================
    # transports
    # ==================================================================
    def _transport_setup(self):
        if self.transport == "tcp":
            yield from self._open_conn()
        elif self.transport == "sctp":
            self.assoc = yield from self.endpoint.connect(self.proxy_addr,
                                                          self.proxy_port)
        return None
        yield  # pragma: no cover

    def _open_conn(self):
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

    def _udp_recv_loop(self):
        while True:
            dgram = yield from self.socket.recvfrom()
            self._dispatch(dgram.payload)

    def _sctp_recv_loop(self):
        while True:
            __, payload = yield from self.endpoint.recvmsg()
            self._dispatch(payload)

    def _send_text(self, text: str) -> None:
        """Non-blocking send toward the proxy (transaction send_fn)."""
        if self.transport == "udp":
            self.socket.sendto(text, self.proxy_addr, self.proxy_port)
        elif self.transport == "sctp":
            if self.assoc is not None and self.assoc.established:
                self.endpoint.sendmsg(self.assoc, text)
        else:
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
        if self.transport == "tcp" and \
                (self.conn is None or not self.conn.open_for_send):
            # Our connection died (e.g. the overloaded server shed it):
            # re-establish before calling.
            yield Sleep(1000.0)
            yield from self._open_conn()
            yield from self._register(attempts=1)
            if self.conn is None or not self.conn.open_for_send:
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
        yield from self._maybe_reconnect()

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
        self._ops_on_conn += 1

    def _maybe_reconnect(self):
        if self.transport != "tcp" or self.ops_per_conn is None:
            return
        if self._ops_on_conn < self.ops_per_conn:
            return
        # Open a new connection; the old one is abandoned, never closed
        # (§4.3) — the server's idle management must deal with it.
        yield from self._open_conn()
        yield from self._register(attempts=1)

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
        if self._answered is not None:
            self._expire_answered()
            text = self._answered.get(call_id)
            if text is not None:
                self.retransmissions_absorbed += 1
                self._send_text(text)
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

    def _handle_ack(self, ack: PhoneMessage) -> None:
        call_id = ack.call_id
        st = self._uas_invites.pop(call_id, None)
        if st is None:
            return
        st.handle_ack()
        if self.reliable:
            # Timer I is zero over a reliable transport (RFC 3261
            # §17.2.1): no INVITE retransmission can arrive to absorb.
            return
        # Over UDP a repeat of the INVITE may still arrive for 64×T1
        # (timer I); all it can get is the 200 OK again, so keep the text.
        if self._answered is None:
            self._answered = {}
            self._answered_expiry = deque()
        else:
            self._expire_answered()
        self._answered[call_id] = st.last_text
        self._answered_expiry.append(
            (self.engine.now + 64.0 * self.t1_us, call_id))

    def _expire_answered(self) -> None:
        """Forget the answered calls whose linger is over.  The linger is
        [ACK, ACK + 64×T1): a timer armed at the ACK would fire before
        any INVITE arriving at its expiry instant, so that one is a new
        call."""
        expiry, now = self._answered_expiry, self.engine.now
        while expiry and expiry[0][0] <= now:
            del self._answered[expiry.popleft()[1]]

    def _handle_bye(self, bye: PhoneMessage) -> None:
        try:
            ok = self.builder.ok_text(bye)
        except ValueError:  # a header to copy is missing
            return
        self._send_text(ok)
        self._note_handled_op()

    def _note_handled_op(self) -> None:
        self.handled_ops += 1
        self._ops_on_conn += 1
        if (self.transport == "tcp" and self.ops_per_conn is not None
                and self.role == "callee"
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
            yield from self._open_conn()
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

    def __init__(self, phone: Phone, conn) -> None:
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
