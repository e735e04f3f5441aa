"""Unit tests for the benchmark phones (against a scripted fake proxy)."""

import gc

import pytest

from repro.clients.phone import Phone
from repro.net.tcp import TcpListener, connect
from repro.net.udp import UdpEndpoint
from repro.sim.engine import Engine
from repro.sim.events import Event
from repro.sim.process import SimProcess
from repro.sip.builder import MessageBuilder
from repro.sip.parser import StreamFramer, parse_message
from repro.sip.reader import PhoneMessage
from repro.sip.transaction import T1_US, ServerTransaction

from conftest import make_lan


class ScriptedProxy:
    """A minimal UDP 'proxy' that relays between two phones directly."""

    def __init__(self, machine, port=5060):
        self.machine = machine
        self.socket = UdpEndpoint(machine, port)
        self.bindings = {}
        self.seen = []
        self.drop_methods = set()
        machine.engine.schedule(0.0, self._arm)

    def _arm(self):
        self.socket.buffer.readable_signal.listen(self._pump)
        self._pump()

    def _pump(self, _value=None):
        while True:
            dgram = self.socket.try_recvfrom()
            if dgram is None:
                return
            self._handle(dgram)

    def _handle(self, dgram):
        msg = parse_message(dgram.payload)
        self.seen.append(msg)
        if msg.is_request and msg.method == "REGISTER":
            contact = msg.contact.uri
            self.bindings[msg.to_addr.uri.aor] = (contact.host,
                                                  contact.port or 5060)
            reply = self._response(msg, 200)
            self.socket.sendto(reply, dgram.src_addr, dgram.src_port)
            return
        if msg.is_request:
            if msg.method in self.drop_methods:
                return
            target = self.bindings.get(msg.uri.aor) or \
                (msg.uri.host, msg.uri.port or 5060)
            self.socket.sendto(dgram.payload, target[0], target[1])
        else:
            via = msg.top_via
            self.socket.sendto(dgram.payload, via.host, via.port)

    @staticmethod
    def _response(request, status):
        from repro.sip.message import SipResponse
        response = SipResponse(status)
        for value in request.get_all("Via"):
            response.add("Via", value)
        for name in ("From", "To", "Call-ID", "CSeq"):
            response.add(name, request.get(name))
        response.add("Content-Length", "0")
        return response.render()


def make_pair(engine, t1_us=T1_US, **phone_kwargs):
    __, machines = make_lan(engine, ["server", "client1", "client2"])
    proxy = ScriptedProxy(machines["server"])
    go = Event(engine, "go")
    caller = Phone(machines["client1"], "alice", "example.com", 20000,
                   "udp", "server", 5060,
                   rng=__import__("random").Random(1), role="caller",
                   peer_user="bob", go_event=go, t1_us=t1_us,
                   **phone_kwargs)
    callee = Phone(machines["client2"], "bob", "example.com", 30000,
                   "udp", "server", 5060,
                   rng=__import__("random").Random(2), role="callee",
                   t1_us=t1_us)
    return proxy, go, caller.start(), callee.start()


def test_phones_register_then_call(engine):
    proxy, go, caller, callee = make_pair(engine)
    engine.run(until=1_000_000.0)
    assert caller.registered and callee.registered
    go.fire(None)
    engine.run(until=2_000_000.0)
    assert caller.calls_completed > 0
    assert caller.ops_completed == caller.calls_completed * 2
    assert callee.handled_ops > 0
    assert caller.calls_failed == 0


def test_open_loop_caller_calls_only_when_told(engine):
    """An open-loop caller registers, then makes exactly the calls
    ``start_call()`` gives it, even after the go event fires."""
    proxy, go, caller, callee = make_pair(engine, open_loop=True)
    engine.run(until=1_000_000.0)
    go.fire(None)
    engine.run(until=1_500_000.0)
    assert caller.registered and caller.calls_attempted == 0
    caller.start_call()
    engine.run(until=2_500_000.0)
    assert caller.calls_attempted == caller.calls_completed == 1
    assert [m.method for m in proxy.seen
            if m.is_request and m.method != "REGISTER"] == \
        ["INVITE", "ACK", "BYE"]


def test_call_message_sequence(engine):
    proxy, __, caller, callee = make_pair(engine, open_loop=True)
    engine.run(until=1_000_000.0)
    caller.start_call()
    engine.run(until=2_000_000.0)
    methods = [m.method for m in proxy.seen
               if m.is_request and m.method != "REGISTER"]
    # One full call: INVITE, ACK, BYE, in order.
    assert methods[:3] == ["INVITE", "ACK", "BYE"]


def test_caller_times_out_when_callee_unreachable(engine):
    proxy, go, caller, callee = make_pair(engine, t1_us=20_000.0)
    proxy.drop_methods.add("INVITE")
    engine.run(until=1_000_000.0)
    go.fire(None)
    engine.run(until=engine.now + 5_000_000.0)
    assert caller.calls_failed > 0
    assert caller.calls_completed == 0


def test_caller_retransmits_over_udp(engine):
    """Drop the first INVITE: the caller's timer A resends and the call
    still completes."""
    proxy, __, caller, callee = make_pair(engine, t1_us=50_000.0,
                                          open_loop=True)
    original_handle = proxy._handle
    dropped = []

    def drop_first_invite(dgram):
        msg = parse_message(dgram.payload)
        if msg.is_request and msg.method == "INVITE" and not dropped:
            dropped.append(True)
            return
        original_handle(dgram)

    proxy._handle = drop_first_invite
    engine.run(until=1_000_000.0)
    caller.start_call()
    engine.run(until=2_000_000.0)
    assert dropped
    assert caller.calls_completed >= 1


def test_callee_absorbs_invite_retransmission(engine):
    """Over UDP the answered INVITE lingers for 64×T1 after the ACK, and
    a repeat of it gets the stored 200 OK, not a second call."""
    proxy, __, caller, callee = make_pair(engine, open_loop=True)
    engine.run(until=1_000_000.0)
    caller.start_call()
    engine.run(until=1_200_000.0)
    invites = [m for m in proxy.seen
               if m.is_request and m.method == "INVITE"]
    assert invites
    call_id = invites[0].call_id
    assert call_id in callee._answered  # ACKed, kept as its 200 OK text
    assert call_id not in callee._uas_invites

    def oks():
        return [m.render() for m in proxy.seen
                if not m.is_request and m.status == 200
                and m.cseq.method == "INVITE"]

    assert len(oks()) == 1
    # Replay the INVITE at the callee; it must not start a second call.
    before = callee.handled_ops
    proxy.socket.sendto(invites[0].render(), "client2", 30000)
    engine.run(until=engine.now + 200_000.0)
    assert callee.handled_ops == before
    assert callee.retransmissions_absorbed == 1
    assert oks() == 2 * oks()[:1]
    assert parse_message(callee._answered[call_id]).render() == oks()[0]


def udp_callee(engine):
    """A UDP callee that was never started, and the proxy-side socket
    that receives what it sends; tests hand it requests themselves, at
    instants they choose."""
    __, machines = make_lan(engine, ["server", "client2"])
    proxy = UdpEndpoint(machines["server"], 5060)
    callee = Phone(machines["client2"], "bob", "example.com", 30000, "udp",
                   "server", 5060, rng=__import__("random").Random(2),
                   role="callee")
    return proxy, callee


def received(socket):
    """The texts waiting at ``socket``, oldest first."""
    texts = []
    while True:
        dgram = socket.try_recvfrom()
        if dgram is None:
            return texts
        texts.append(dgram.payload)


def answered_call(engine, callee):
    """Hand ``callee`` one INVITE, then its ACK 1 ms later: (INVITE text,
    ACK text, BYE text, the instant the ACK arrived)."""
    invite, ack, bye = a_call("udp")
    callee._dispatch(invite)
    engine.run(until=engine.now + 1_000.0)
    callee._dispatch(ack)
    return invite, ack, bye, engine.now


def test_udp_callee_answers_bye_without_a_transaction(engine, monkeypatch):
    """Nothing indexes a BYE's server transaction, so no repeat of the BYE
    could reach one: the callee sends the 200 OK and keeps nothing, not
    even a give-up timer."""
    sent = []
    monkeypatch.setattr(Phone, "_send_text",
                        lambda self, text: sent.append(text))
    __, callee = udp_callee(engine)
    __, __, bye = a_call("udp")
    before = engine.events_scheduled
    callee._dispatch(bye)
    assert engine.events_scheduled == before
    (ok,) = [parse_message(text) for text in sent]
    assert ok.status == 200 and ok.cseq.method == "BYE"
    assert callee.handled_ops == 1
    assert not [obj for obj in gc.get_objects()
                if type(obj) is ServerTransaction and obj.engine is engine]


def test_callee_drops_a_bye_it_cannot_answer(engine, monkeypatch):
    """A BYE without a Call-ID gets no 200 OK with an invented one, and
    counts as no handled operation."""
    sent = []
    monkeypatch.setattr(Phone, "_send_text",
                        lambda self, text: sent.append(text))
    __, callee = udp_callee(engine)
    __, __, bye = a_call("udp")
    callee._dispatch("".join(line for line in bye.splitlines(keepends=True)
                             if not line.startswith("Call-ID: ")))
    assert sent == [] and callee.handled_ops == 0


@pytest.mark.parametrize("offset_us, replayed", [(-1.0, True),
                                                 (0.0, False)])
def test_answered_invite_is_replayed_until_its_linger_ends(
        engine, offset_us, replayed):
    """A repeat of an answered INVITE gets the stored 200 OK until 64×T1
    after the ACK; from that instant on it is a new call."""
    proxy, callee = udp_callee(engine)
    invite, __, __, ack_at = answered_call(engine, callee)
    engine.run(until=engine.now + 10_000.0)
    first = received(proxy)
    assert [parse_message(text).status for text in first] == [180, 200]
    engine.schedule_at(ack_at + 64.0 * callee.t1_us + offset_us,
                       callee._dispatch, invite)
    engine.run(until=ack_at + 64.0 * callee.t1_us + 10_000.0)
    again = received(proxy)
    if replayed:
        assert again == first[1:]
        assert (callee.handled_ops, callee.retransmissions_absorbed) == (1, 1)
    else:
        assert [parse_message(text).status for text in again] == [180, 200]
        assert again[1] != first[1]  # a fresh answer, with its own tag
        assert (callee.handled_ops, callee.retransmissions_absorbed) == (2, 0)


def test_duplicate_ack_changes_nothing(engine):
    """A second ACK sends nothing and does not restart the linger."""
    proxy, callee = udp_callee(engine)
    invite, ack, __, ack_at = answered_call(engine, callee)
    engine.run(until=engine.now + 10_000.0)
    ok = received(proxy)[1]
    callee._dispatch(ack)
    engine.run(until=ack_at + 64.0 * callee.t1_us - 20_000.0)
    assert received(proxy) == []
    assert (callee.handled_ops, callee.retransmissions_absorbed) == (1, 0)
    callee._dispatch(invite)  # still the stored answer ...
    engine.run(until=engine.now + 10_000.0)
    assert received(proxy) == [ok]
    engine.schedule_at(ack_at + 64.0 * callee.t1_us,
                       callee._dispatch, invite)
    engine.run(until=engine.now + 10_000.0)  # ... until the first ACK's
    assert callee.handled_ops == 2           # linger ends


def test_phone_rejects_bad_role():
    engine = Engine()
    __, machines = make_lan(engine, ["client1"])
    import random
    with pytest.raises(ValueError):
        Phone(machines["client1"], "x", "d", 1000, "udp", "server", 5060,
              rng=random.Random(1), role="listener")
    with pytest.raises(ValueError):
        Phone(machines["client1"], "x", "d", 1001, "udp", "server", 5060,
              rng=random.Random(1), role="caller")  # no peer


def test_stop_kills_processes(engine):
    proxy, go, caller, callee = make_pair(engine)
    engine.run(until=500_000.0)
    caller.stop()
    assert all(not proc.alive for proc in caller.processes)


@pytest.mark.parametrize("name, value", [("Via", "garbage"),
                                         ("CSeq", "abc INVITE")])
def test_unparsable_response_header_is_ignored(engine, name, value):
    """A response whose Via or CSeq does not parse is dropped like one
    that does not parse at all; the call it names carries on."""
    proxy, __, caller, callee = make_pair(engine, open_loop=True)
    proxy.drop_methods.add("INVITE")
    engine.run(until=1_000_000.0)
    caller.start_call()
    engine.run(until=engine.now + 1_000.0)
    ((branch, txn),) = caller._client_txns.items()
    ringing = MessageBuilder("bob", "example.com", "client2", 30000, "udp",
                             __import__("random").Random(2)).response_for(
        parse_message(txn.text), 180, to_tag="t")
    ringing.set(name, value)
    state = txn.state
    caller._dispatch(ringing.render())
    assert txn.state is state
    assert caller._client_txns[branch] is txn


def test_port_exhaustion_counts_as_registration_failure(engine):
    """A server that closes every connection makes the phone reconnect at
    once; each abandoned connection keeps its port, so the phone runs out
    of ephemeral ports.  That is a failed registration, not a crash."""
    __, machines = make_lan(engine, ["server", "client1"], ephemeral_ports=2)
    listener = TcpListener(machines["server"], 5060)

    def refuse_all():
        while True:
            conn = yield from listener.accept()
            conn.close()

    machines["server"].spawn_light(refuse_all(), "refuse").start()
    phone = Phone(machines["client1"], "bob", "example.com", 30000, "tcp",
                  "server", 5060, rng=__import__("random").Random(2),
                  role="callee").start()
    engine.run(until=1_000_000.0)
    assert machines["client1"].tcp_ports.exhaustions > 0
    assert phone.registration_failures > 0
    assert not phone.registered


class TcpRegistrar:
    """A minimal TCP 'proxy': it answers REGISTER on every connection it
    accepts and keeps those connections, oldest first."""

    def __init__(self, machine, port=5060):
        self.machine = machine
        self.listener = TcpListener(machine, port)
        self.conns = []
        self.registered_at = []  #: when each REGISTER was answered
        machine.spawn_light(self._accept_loop(), "registrar").start()

    def _accept_loop(self):
        while True:
            conn = yield from self.listener.accept()
            self.conns.append(conn)
            self.machine.spawn_light(self._serve(conn), "serve").start()

    def _serve(self, conn):
        framer = StreamFramer()
        while True:
            data = yield from conn.recv()
            if not data:
                return
            for text in framer.feed(data):
                msg = parse_message(text)
                if msg.is_request and msg.method == "REGISTER":
                    self.registered_at.append(self.machine.engine.now)
                    conn.try_send(ScriptedProxy._response(msg, 200))


def registered_tcp_phone(engine):
    """A TCP callee registered over its first connection."""
    __, machines = make_lan(engine, ["server", "client1"])
    registrar = TcpRegistrar(machines["server"])
    phone = Phone(machines["client1"], "bob", "example.com", 30000, "tcp",
                  "server", 5060, rng=__import__("random").Random(2),
                  role="callee").start()
    engine.run(until=100_000.0)
    assert phone.registered and len(registrar.conns) == 1
    assert phone.conn.peer is registrar.conns[0]
    return registrar, phone


def an_invite():
    return MessageBuilder("alice", "example.com", "client2", 20000, "tcp",
                          __import__("random").Random(1)).invite(
        "bob").render()


def a_call(transport):
    """(INVITE, ACK, BYE) texts of one call from alice to bob."""
    builder = MessageBuilder("alice", "example.com", "client2", 20000,
                             transport, __import__("random").Random(1))
    invite, __, dialog = builder.invite_text("bob")
    __, ok = builder.answer_texts(PhoneMessage(invite), "t")
    dialog.confirm(PhoneMessage(ok))
    return invite, builder.ack_text(dialog), builder.bye_text(dialog)[0]


def an_invite_and_its_ack():
    """(INVITE text, ACK text) of one call from alice to bob over TCP."""
    return a_call("tcp")[:2]


def phone_processes(engine, machine_name):
    """The live processes on one machine, found on the heap: a process
    a phone parks without listing it is counted too."""
    return [obj for obj in gc.get_objects()
            if type(obj) is SimProcess and obj.engine is engine
            and obj.alive and obj.name.startswith(machine_name + "/")]


def test_stopped_phone_reads_nothing_more(engine, monkeypatch):
    """Once stopped, a phone dispatches nothing that later arrives on its
    connections."""
    registrar, phone = registered_tcp_phone(engine)
    seen = []
    monkeypatch.setattr(Phone, "_dispatch",
                        lambda self, text: seen.append(text))
    registrar.conns[0].try_send(an_invite())
    engine.run(until=engine.now + 10_000.0)
    assert len(seen) == 1  # the phone was reading until now
    phone.stop()
    registrar.conns[0].try_send(an_invite())
    registrar.conns[0].close()
    engine.run(until=engine.now + 1_000_000.0)
    assert len(seen) == 1
    assert len(registrar.conns) == 1  # no reconnect after the EOF either


def test_eof_on_current_connection_reconnects_once(engine):
    registrar, phone = registered_tcp_phone(engine)
    registrar.conns[0].close()
    engine.run(until=engine.now + 1_000_000.0)
    assert len(registrar.conns) == 2
    assert phone.conn.peer is registrar.conns[1]
    assert phone.registered and not phone._reconnect_wanted


def test_eof_on_abandoned_connection_changes_nothing(engine):
    """The proxy reaping a connection the phone rotated away from (§4.3's
    abandoned connections) is not a reason to reconnect."""
    registrar, phone = registered_tcp_phone(engine)
    phone._want_reconnect()  # what ops_per_conn rotation does
    engine.run(until=engine.now + 100_000.0)
    assert len(registrar.conns) == 2

    def state():
        return (phone.conn, phone._reconnect_wanted, phone.registered,
                phone.registration_failures, dict(phone._client_txns),
                phone.handled_ops)

    before = state()
    registrar.conns[0].close()
    engine.run(until=engine.now + 1_000_000.0)
    assert state() == before
    assert len(registrar.conns) == 2


def test_framing_error_acts_like_eof(engine):
    """Bytes the framer rejects end the reading of that connection, and
    the phone reconnects as it does after an EOF."""
    registrar, phone = registered_tcp_phone(engine)
    first = phone.conn
    registrar.conns[0].try_send("X\r\nContent-Length: nope\r\n\r\n")
    engine.run(until=engine.now + 1_000_000.0)
    assert len(registrar.conns) == 2
    assert phone.conn.peer is registrar.conns[1]
    assert phone.registered
    # still open, but nothing waits to read it any more
    assert first.open_for_send
    assert not first.readable_signal._callbacks


def test_registered_tcp_phones_park_no_accept_or_reconnect_process(engine):
    """A registered TCP callee has nothing left to run until a message
    arrives: no live process and no reconnect signal.  A caller keeps
    only its main process, waiting for the go event."""
    __, machines = make_lan(engine, ["server", "client1", "client2"])
    TcpRegistrar(machines["server"])
    callee = Phone(machines["client1"], "bob", "example.com", 30000, "tcp",
                   "server", 5060, rng=__import__("random").Random(2),
                   role="callee").start()
    caller = Phone(machines["client2"], "alice", "example.com", 20000, "tcp",
                   "server", 5060, rng=__import__("random").Random(1),
                   role="caller", peer_user="bob",
                   go_event=Event(engine, "go")).start()
    engine.run(until=100_000.0)
    assert callee.registered and caller.registered
    assert phone_processes(engine, "client1") == []
    assert phone_processes(engine, "client2") == caller.processes[:1]
    assert callee._reconnect_signal is None
    assert caller._reconnect_signal is None


def test_reliable_callee_forgets_the_invite_at_the_ack(engine):
    """Over TCP no INVITE retransmission can follow the ACK (timer I is
    zero), so the answered call leaves no transaction behind."""
    registrar, phone = registered_tcp_phone(engine)
    invite, ack = an_invite_and_its_ack()
    registrar.conns[0].try_send(invite)
    engine.run(until=engine.now + 10_000.0)
    assert phone.handled_ops == 1 and len(phone._uas_invites) == 1
    registrar.conns[0].try_send(ack)
    engine.run(until=engine.now + 10_000.0)
    assert phone._uas_invites == {}


def test_connection_dialled_to_the_listener_is_accepted_and_read(engine):
    """The proxy dials a phone with no live connection: the phone accepts
    the connection and handles what arrives on it."""
    registrar, phone = registered_tcp_phone(engine)
    conns = {}

    def dial():
        conns["dialled"] = yield from connect(registrar.machine, "client1",
                                              30000)

    registrar.machine.spawn_light(dial(), "dial").start()
    engine.run(until=engine.now + 10_000.0)
    assert phone.listener.accepted == 1
    conns["dialled"].try_send(an_invite())
    engine.run(until=engine.now + 10_000.0)
    assert phone.handled_ops == 1 and len(phone._uas_invites) == 1
    # and it keeps accepting
    registrar.machine.spawn_light(dial(), "dial").start()
    engine.run(until=engine.now + 10_000.0)
    assert phone.listener.accepted == 2


def test_stopped_phone_accepts_nothing(engine):
    registrar, phone = registered_tcp_phone(engine)
    phone.stop()

    def dial():
        conn = yield from connect(registrar.machine, "client1", 30000)
        conn.try_send(an_invite())

    registrar.machine.spawn_light(dial(), "dial").start()
    engine.run(until=engine.now + 100_000.0)
    assert phone.listener.accepted == 0
    assert len(phone.listener.accept_queue) == 1
    assert phone.handled_ops == 0


#: (simulated µs, engine events) from the proxy closing the phone's
#: connection to the phone's REGISTER on a new one, for the first close
#: and the second, as measured when the reconnect process was parked
#: from the phone's start
RECONNECT_TIMING = [(204.616, 14), (204.616, 14)]


def test_reconnects_keep_their_timing(engine):
    """The first reconnect request builds the reconnect process, the next
    one wakes it; both re-register as soon, and in as many events, as
    when the process was parked from the phone's start."""
    registrar, phone = registered_tcp_phone(engine)
    seen = []
    for closer in range(2):
        fired, closed_at = engine.events_fired, engine.now
        registrar.conns[closer].close()
        engine.run(until=engine.now + 100_000.0)
        seen.append((registrar.registered_at[-1] - closed_at,
                     engine.events_fired - fired))
    assert len(registrar.conns) == 3
    assert phone.conn.peer is registrar.conns[2]
    assert [(pytest.approx(us), events) for us, events in seen] \
        == RECONNECT_TIMING
