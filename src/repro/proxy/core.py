"""Transport-independent SIP proxy logic.

``ProxyCore.process`` is what an OpenSER worker does with one received
message: parse it, match or create transaction state (shared, locked),
route it, and emit the messages to transmit.  It is a generator so that
every step charges calibrated CPU on the simulated cores; the transport
architectures wrap it with their own receive/transmit machinery.

Each step's simulated cost is the cost model's, whatever the host does.
On the host, a text the phones wrote is read by template
(:func:`~repro.sip.reader.proxy_read`) for only what the proxy routes on,
and sent on as the received text spliced: a forwarded request with our
Via line inserted after the start line and Max-Forwards rewritten, a
relayed response with its top Via line cut, and a reply repeating the
request's Via, From, To, Call-ID and CSeq lines.  The message model is
the fallback: a text no template fits is parsed into it and rendered
from it, so what the model rejects is rejected at the same step.
``tests/test_property_based.py::TestProxyReaderAgreement`` holds the two
paths to the same sends, counters and span attributes.
"""

from sys import intern
from typing import Dict, List, Optional

from repro.proxy.routing import SendAction, ToBinding, ToSource, ToVia
from repro.proxy.txn_table import ProxyTransaction, TimerList, TransactionTable
from repro.sim.primitives import Compute
from repro.sip.builder import BRANCH_MAGIC
from repro.sip.headers import Via
from repro.sip.location import Binding, LocationService
from repro.sip.message import SipRequest, SipResponse
from repro.sip.parser import SipParseError, parse_message
from repro.sip.reader import ProxyRequest, ProxyResponse, proxy_read

#: how long a completed transaction lingers to absorb retransmissions
GC_LINGER_US = 1_000_000.0
#: headers without which a request is not processed (RFC 3261 §16.3
#: step 1, "reasonable syntax"; §8.1.1 makes them mandatory)
MANDATORY_HEADERS = frozenset(("To", "From", "Call-ID", "CSeq", "Via"))


class ProxyCore:
    """The proxy's message-processing brain (shared by all workers)."""

    def __init__(self, engine, config, costs, location: LocationService,
                 txn_table: TransactionTable, timer_list: TimerList,
                 stats, via_host: str) -> None:
        self.engine = engine
        self.config = config
        self.costs = costs
        self.location = location
        self.txn_table = txn_table
        self.timer_list = timer_list
        self.stats = stats
        self.via_host = via_host
        #: our Via value up to the branch, as ``Via.render`` writes it
        self._via_head = (f"SIP/2.0/{config.transport.split('-')[0].upper()}"
                          f" {via_host}:{config.port};branch=")
        self._branch_counter = 0
        self._pending_register_contact = None
        #: optional probe (set by BaseProxyServer): pipeline spans, and
        #: counters for the paths that skip the pipeline (503 shed, rtx
        #: absorb) — the transport loops own the per-message context
        self.probe = None
        #: optional overload controller (set by BaseProxyServer); None
        #: means no admission check at all — the collapse baseline pays
        #: zero overhead
        self.controller = None
        #: span lane names, ``"<host>/<who>"``, one string per process
        self._lanes: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def process(self, text: str, source, who: str = "worker"):
        """Generator: handle one received message; returns [SendAction]."""
        probe = self.probe
        span = (probe.begin("process_msg", cat="proxy",
                            who=self._lane(who),
                            transport=self.config.transport)
                if probe is not None else None)
        if span is None:
            return (yield from self._process(text, source, who))
        try:
            actions = yield from self._process(text, source, who, span)
            span.set(actions=len(actions))  # before end() commits the row
        finally:
            probe.end(span)
        return actions

    def _lane(self, who: str) -> str:
        lane = self._lanes.get(who)
        if lane is None:
            lane = self._lanes[who] = f"{self.via_host}/{who}"
        return lane

    def _process(self, text: str, source, who: str, span=None):
        self._pending_register_contact = None
        self.stats.messages_received += 1
        controller = self.controller
        if (controller is not None and text.startswith("INVITE ")
                and not controller.admit(self.engine.now, source)):
            # Shed before the full parse: the whole point of 503-based
            # overload control is that rejection costs a fraction of
            # processing (method sniff + shallow header scan), so the
            # server keeps capacity for the calls it does admit.  A
            # rejected retransmission is shed too — the 503 terminates
            # the upstream transaction and stops the retransmit clock.
            return (yield from self._reject_overload(text, source, span))
        parse_span = (self.probe.begin("parse_msg", cat="proxy",
                                       who=self._lane(who))
                      if span is not None else None)
        yield Compute(self.costs.parse_cost(len(text), len(self.location)),
                      "parse_msg")
        message = proxy_read(text)
        if message is None:
            try:
                message = parse_message(text)
            except SipParseError:
                self.stats.parse_errors += 1
                if parse_span is not None:
                    self.probe.end(parse_span.set(error="parse"))
                return []
        if parse_span is not None:
            self.probe.end(parse_span)
            # Recorded rows share one string per Call-ID, method and status
            # (a message may lack a Call-ID: the request check comes later).
            call_id = message.call_id
            span.set(call_id=intern(call_id) if call_id else call_id,
                     kind=intern(message.method if message.is_request
                                 else f"{message.status}"))
        if message.is_request:
            return (yield from self._process_request(message, source, who))
        return (yield from self._process_response(message, source, who))

    def _reject_overload(self, text: str, source, span=None):
        """Generator: 503-shed an INVITE the controller refused.

        Charges ``reject_503_us`` — the cost of the method sniff, a
        shallow scan for the headers the 503 must echo, and building the
        tiny response — instead of the full parse/route/forward
        pipeline, and creates **no** transaction state.
        """
        yield Compute(self.costs.reject_503_us, "reject_503")
        request = proxy_read(text)
        if request is None:
            try:
                request = parse_message(text)
            except SipParseError:
                self.stats.parse_errors += 1
                return []
        self.stats.invites_rejected += 1
        if span is not None:
            span.set(call_id=request.call_id, kind="INVITE", rejected=True)
        if self.probe is not None:
            self.probe.count("core.rejected_503")
        retry_after = self.controller.retry_after_s
        if type(request) is ProxyRequest:
            reply = request.reply(503, f"Retry-After: {retry_after}\r\n")
        else:
            response = self._make_response(request, 503)
            response.add("Retry-After", str(retry_after))
            reply = response.render()
        return [SendAction(reply, ToSource(source), "reply")]

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------
    def _process_request(self, request, source, who: str) -> List[SendAction]:
        method = request.method
        # A template admits these four methods only, each with every
        # mandatory header; a parsed request is checked here.
        if type(request) is not ProxyRequest:
            if method not in ("REGISTER", "ACK", "INVITE", "BYE"):
                # Anything else: politely decline, on the request line
                # alone.
                reply = self._make_response(request, 501, "Not Implemented")
                return [SendAction(reply.render(), ToSource(source), "reply")]
            # the dict's keys are the header names, collected without a
            # Python-level loop on every request
            if not MANDATORY_HEADERS.issubset(dict(request.headers)):
                # Malformed: charged the parse only, answered 400 unless
                # it is an ACK (which gets no response).
                self.stats.parse_errors += 1
                if method == "ACK":
                    return []
                return self._reply(request, 400, source)
        if method == "REGISTER":
            return (yield from self._process_register(request, source))
        if method == "ACK":
            return (yield from self._process_ack(request, who))
        return (yield from self._process_relay(request, source, who))

    def _process_register(self, request, source) -> List[SendAction]:
        yield Compute(self.costs.registrar_update_us, "save_usrloc")
        if type(request) is ProxyRequest:
            registration = request.registration
        else:
            try:
                contact, to_addr = request.contact, request.to_addr
            except ValueError:  # an address that does not parse is none
                contact = to_addr = None
            registration = None
            if contact is not None and to_addr is not None:
                uri = contact.uri
                registration = (to_addr.uri.aor, uri.host, uri.port,
                                uri.params.get("transport"))
        if registration is None:
            self.stats.parse_errors += 1
            return self._reply(request, 400, source)
        aor, host, port, transport = registration
        binding = Binding(
            aor=aor,
            addr=host,
            port=port or 5060,
            transport=(transport if transport is not None
                       else self.config.transport),
            conn=source if self.config.transport in ("tcp", "tcp-threaded")
            else None,
            assoc=source if self.config.transport == "sctp" else None,
            registered_at=self.engine.now,
        )
        self.location.register(binding)
        self.stats.registrations += 1
        self._pending_register_contact = (binding.addr, binding.port)
        return self._reply(request, 200, source)

    def _process_relay(self, request, source, who: str) -> List[SendAction]:
        try:
            upstream_key = request.transaction_key()
            max_forwards = request.max_forwards
        except ValueError:  # a Via, CSeq or Max-Forwards value
            return self._malformed()
        probe = self.probe
        match_span = (probe.begin("txn_match", cat="proxy",
                                  who=self._lane(who),
                                  method=intern(request.method))
                      if probe is not None else None)
        txn = yield from self.txn_table.lookup_upstream(upstream_key, who)
        if match_span is not None:
            probe.end(match_span.set(hit=txn is not None))
        if txn is not None:
            # A retransmission from the caller: the stateful proxy absorbs
            # it and replays the best response it has (§2).
            self.stats.retransmissions_absorbed += 1
            if probe is not None:
                probe.count("core.rtx_absorbed")
            if txn.last_response_text is not None:
                return [SendAction(txn.last_response_text,
                                   ToSource(txn.source), "reply")]
            return []

        actions: List[SendAction] = []
        self.stats.transactions_created += 1
        trying_text: Optional[str] = None
        if request.method == "INVITE" and self.config.stateful:
            trying_text = self._reply_text(request, 100)
            actions.append(SendAction(trying_text, ToSource(source), "reply"))

        # Max-Forwards (RFC 3261 §16.3 check 2).
        if max_forwards is not None and max_forwards <= 0:
            return self._reply(request, 483, source)

        yield Compute(self.costs.route_lookup_us, "lookup_contact")
        binding = self._resolve(request)
        if binding is None:
            self.stats.routing_failures += 1
            return self._reply(request, 404, source)

        forwarded, our_branch = yield from self._build_forward(request,
                                                               max_forwards)
        if self.config.stateful:
            txn = ProxyTransaction(
                upstream_key=upstream_key,
                our_branch=our_branch,
                method=request.method,
                source=source,
                forward_target=binding,
                forwarded_text=forwarded,
                created_at=self.engine.now,
            )
            txn.last_response_text = trying_text
            yield from self.txn_table.insert(txn, who)
            if not self.config.reliable_transport:
                txn.rtx_interval_us = self.config.sip_t1_us
                yield from self.timer_list.insert(
                    self.engine.now + txn.rtx_interval_us, "rtx",
                    our_branch, who)
        if self.controller is not None and request.method == "INVITE":
            # Charged against the window only once routing succeeded —
            # retransmissions, 404s and 483s never occupy a slot.
            self.controller.note_admitted(source)
        actions.append(SendAction(forwarded, ToBinding(binding),
                                  "forward_request"))
        return actions

    def _process_ack(self, request, who: str) -> List[SendAction]:
        # ACK for a 2xx is end-to-end: route it like a new request, no
        # transaction state (RFC 3261 §16.11 last paragraph behaviour).
        try:
            max_forwards = request.max_forwards
        except ValueError:
            return self._malformed()
        # Max-Forwards (RFC 3261 §16.3 check 2): an ACK gets no 483, so
        # one that may go no further is dropped, like an unroutable one.
        if max_forwards is not None and max_forwards <= 0:
            self.stats.routing_failures += 1
            return []
        yield Compute(self.costs.route_lookup_us, "lookup_contact")
        binding = self._resolve(request)
        if binding is None:
            self.stats.routing_failures += 1
            return []
        forwarded, __ = yield from self._build_forward(request, max_forwards)
        return [SendAction(forwarded, ToBinding(binding), "forward_request")]

    # ------------------------------------------------------------------
    # responses
    # ------------------------------------------------------------------
    def _process_response(self, response, source,
                          who: str) -> List[SendAction]:
        templated = type(response) is ProxyResponse
        if templated:
            top_host, our_branch = response.top_host, response.branch
        else:
            try:
                top = response.top_via
            except ValueError:
                return self._malformed()
            top_host = our_branch = None
            if top is not None:
                top_host, our_branch = top.host, top.branch
        if top_host != self.via_host:
            self.stats.routing_failures += 1
            return []
        yield Compute(self.costs.build_forward_us, "forward_reply")
        if templated:
            forwarded_text, next_via = response.relayed, response.next_via
        else:
            response.remove_first("Via")
            forwarded_text, next_via = response.render(), response.get("Via")
        if not self.config.stateful:
            # Stateless proxying: forward by the next Via (§16.11).
            try:
                next_via = None if next_via is None else Via.parse(next_via)
            except ValueError:
                return self._malformed()
            if next_via is None:
                self.stats.routing_failures += 1
                return []
            return [SendAction(forwarded_text,
                               ToVia(next_via.host, next_via.port),
                               "forward_response")]
        txn = yield from self.txn_table.lookup_branch(our_branch, who)
        if txn is None:
            self.stats.routing_failures += 1
            return []
        # Only the timer process's retransmission reads the forwarded
        # request, and it skips answered transactions (DESIGN.md §3c).
        yield from self.txn_table.update(
            txn, who, responded=True, last_response_text=forwarded_text,
            forwarded_text=None, forward_target=None)
        if response.is_final and not txn.completed:
            txn.completed = True
            self.stats.transactions_completed += 1
            if txn.method == "INVITE":
                self.stats.invite_completed += 1
                if self.controller is not None:
                    self.controller.note_done(
                        txn.source, success=response.status < 300)
            elif txn.method == "BYE":
                self.stats.bye_completed += 1
            yield from self.timer_list.insert(
                self.engine.now + GC_LINGER_US, "gc", our_branch, who)
        return [SendAction(forwarded_text, ToSource(txn.source),
                           "forward_response")]

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def take_register_contact(self):
        """The (host, port) contact of a REGISTER handled by the most
        recent ``process`` call on this worker's stack, or None.

        Must be read immediately after ``yield from core.process(...)``
        returns (no intervening yields): the TCP architecture uses it to
        alias the arrival connection to the phone's advertised address.
        """
        contact = self._pending_register_contact
        self._pending_register_contact = None
        return contact

    def _resolve(self, request) -> Optional[Binding]:
        """Next-hop resolution of a request-URI (RFC 3261 §16.5/§16.6).

        A request-URI in our domain goes through the location service; any
        other URI (a phone's contact, as in mid-dialog ACK/BYE) is a
        direct next hop at its own host:port.
        """
        if type(request) is ProxyRequest:
            host, aor, port, transport = request.next_hop()
        else:
            uri = request.uri
            host, aor, port = uri.host, uri.aor, uri.port
            transport = uri.params.get("transport")
        if host == self.config.domain:
            return self.location.lookup(aor, now=self.engine.now)
        return Binding(
            aor=aor,
            addr=host,
            port=port or 5060,
            transport=(transport if transport is not None
                       else self.config.transport),
        )

    def new_branch(self) -> str:
        self._branch_counter += 1
        return f"{BRANCH_MAGIC}-pxy-{self._branch_counter:x}"

    def _build_forward(self, request, max_forwards: Optional[int]):
        """Generator: clone-and-forward a request with our Via pushed and
        ``max_forwards`` (the request's, already read) decremented."""
        yield Compute(self.costs.build_forward_us, "forward_request")
        our_branch = self.new_branch()
        via = f"{self._via_head}{our_branch}"
        if type(request) is ProxyRequest:
            return request.forward(via, max_forwards - 1), our_branch
        forwarded = SipRequest(request.method, request.uri,
                               list(request.headers), request.body)
        forwarded.add_first("Via", via)
        if max_forwards is not None:
            forwarded.set("Max-Forwards", str(max_forwards - 1))
        return forwarded.render(), our_branch

    def _malformed(self) -> List[SendAction]:
        """A header value the proxy acts on does not parse: counted as a
        parse error, and nothing is sent."""
        self.stats.parse_errors += 1
        return []

    def _reply(self, request, status: int, source) -> List[SendAction]:
        """Answer ``request`` with ``status``, back where it came from."""
        return [SendAction(self._reply_text(request, status), ToSource(source),
                           "reply")]

    def _reply_text(self, request, status: int) -> str:
        if type(request) is ProxyRequest:
            return request.reply(status)
        return self._make_response(request, status).render()

    def _make_response(self, request: SipRequest, status: int,
                       reason: Optional[str] = None) -> SipResponse:
        response = SipResponse(status, reason)
        for value in request.get_all("Via"):
            response.add("Via", value)
        for name in ("From", "To", "Call-ID", "CSeq"):
            value = request.get(name)
            if value is not None:
                response.add(name, value)
        response.add("Content-Length", "0")
        return response

    # ------------------------------------------------------------------
    # timer-process hooks (retransmission + GC)
    # ------------------------------------------------------------------
    def timer_pass(self, limit: int = 64):
        """Generator: one timer-process sweep; returns retransmit actions."""
        who = "timer"
        expired = yield from self.timer_list.pop_expired(self.engine.now,
                                                         limit, who)
        actions: List[SendAction] = []
        for kind, branch in expired:
            txn = yield from self.txn_table.lookup_branch(branch, who)
            if txn is None:
                continue
            if kind == "gc":
                if txn.completed:
                    yield from self.txn_table.remove(txn, who)
                continue
            # kind == "rtx": retransmit if still unanswered.
            if txn.responded or txn.completed:
                continue
            age = self.engine.now - txn.created_at
            if age >= 64.0 * self.config.sip_t1_us:
                self.stats.transactions_timed_out += 1
                if self.controller is not None and txn.method == "INVITE":
                    self.controller.note_done(txn.source, success=False)
                yield from self.txn_table.remove(txn, who)
                continue
            yield Compute(self.costs.retransmit_us, "t_retransmit")
            self.stats.retransmissions_sent += 1
            txn.rtx_attempts += 1
            txn.rtx_interval_us = min(txn.rtx_interval_us * 2.0,
                                      self.config.sip_t2_us)
            yield from self.timer_list.insert(
                self.engine.now + txn.rtx_interval_us, "rtx", branch, who)
            actions.append(SendAction(txn.forwarded_text,
                                      ToBinding(txn.forward_target),
                                      "retransmit"))
        return actions
