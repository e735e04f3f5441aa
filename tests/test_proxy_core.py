"""Unit tests for the transport-independent proxy core."""

import random

import pytest

from repro.sim.engine import Engine
from repro.proxy.config import ProxyConfig
from repro.proxy.core import ProxyCore
from repro.proxy.costs import CostModel
from repro.proxy.routing import ToBinding, ToSource
from repro.proxy.stats import ProxyStats
from repro.proxy.txn_table import TimerList, TransactionTable
from repro.sip.builder import MessageBuilder
from repro.sip.headers import Via
from repro.sip.location import LocationService
from repro.sip.parser import parse_message
from repro.sip.reader import PhoneMessage, proxy_read

from conftest import drive


def make_core(engine, transport="udp", stateful=True):
    config = ProxyConfig(transport=transport, workers=2, stateful=stateful)
    costs = CostModel()
    location = LocationService()
    stats = ProxyStats()
    core = ProxyCore(engine, config, costs, location,
                     TransactionTable(costs), TimerList(costs), stats,
                     via_host="server")
    return core


def alice(transport="udp"):
    return MessageBuilder("alice", "example.com", "client1", 20000,
                          transport, random.Random(1))


def bob(transport="udp"):
    return MessageBuilder("bob", "example.com", "client2", 40000,
                          transport, random.Random(2))


def an_invite_and_its_ack():
    """(INVITE, its ACK) from alice, as message objects, of a call bob
    answered with a 200 OK carrying his Contact."""
    caller = alice()
    text, __, dialog = caller.invite_text("bob")
    __, ok = bob().answer_texts(PhoneMessage(text), "bt")
    dialog.confirm(PhoneMessage(ok))
    return parse_message(text), parse_message(caller.ack_text(dialog))


def register(engine, core, builder, source):
    return drive(engine, core.process(builder.register().render(), source))


class TestRegister:
    def test_register_creates_binding_and_replies_200(self, engine):
        core = make_core(engine)
        actions = register(engine, core, bob(), ("client2", 40000))
        assert len(actions) == 1
        reply = parse_message(actions[0].text)
        assert reply.status == 200
        assert isinstance(actions[0].target, ToSource)
        binding = core.location.lookup("bob@example.com")
        assert binding is not None
        assert binding.addr == "client2"
        assert binding.port == 40000

    def test_register_contact_hook_for_tcp(self, engine):
        core = make_core(engine, transport="tcp")
        register(engine, core, bob("tcp"), "conn-record")
        assert core.take_register_contact() == ("client2", 40000)
        assert core.take_register_contact() is None  # one-shot

    def test_tcp_register_stores_source_conn(self, engine):
        core = make_core(engine, transport="tcp")
        source = object()
        register(engine, core, bob("tcp"), source)
        assert core.location.lookup("bob@example.com").conn is source


class TestInvite:
    def setup_call(self, engine, core):
        register(engine, core, bob(), ("client2", 40000))
        invite = alice().invite("bob")
        actions = drive(engine, core.process(invite.render(),
                                             ("client1", 20000)))
        return invite, actions

    def test_stateful_invite_sends_trying_and_forwards(self, engine):
        core = make_core(engine)
        __, actions = self.setup_call(engine, core)
        assert len(actions) == 2
        trying = parse_message(actions[0].text)
        assert trying.status == 100
        forwarded = parse_message(actions[1].text)
        assert forwarded.method == "INVITE"
        assert isinstance(actions[1].target, ToBinding)
        assert actions[1].target.binding.aor == "bob@example.com"

    def test_forwarded_invite_gets_our_via_and_decremented_max_forwards(
            self, engine):
        core = make_core(engine)
        invite, actions = self.setup_call(engine, core)
        forwarded = parse_message(actions[1].text)
        vias = [Via.parse(value) for value in forwarded.get_all("Via")]
        assert len(vias) == 2
        assert vias[0].host == "server"
        assert vias[1].host == "client1"
        assert forwarded.max_forwards == invite.max_forwards - 1

    def test_stateless_invite_skips_trying(self, engine):
        core = make_core(engine, stateful=False)
        __, actions = self.setup_call(engine, core)
        assert len(actions) == 1
        assert parse_message(actions[0].text).method == "INVITE"

    def test_unknown_callee_gets_404(self, engine):
        core = make_core(engine)
        invite = alice().invite("nobody")
        actions = drive(engine, core.process(invite.render(),
                                             ("client1", 20000)))
        finals = [parse_message(a.text) for a in actions]
        assert finals[-1].status == 404
        assert core.stats.routing_failures == 1

    def test_max_forwards_zero_gets_483(self, engine):
        core = make_core(engine)
        register(engine, core, bob(), ("client2", 40000))
        invite = alice().invite("bob")
        invite.set("Max-Forwards", "0")
        actions = drive(engine, core.process(invite.render(),
                                             ("client1", 20000)))
        assert parse_message(actions[-1].text).status == 483

    def test_retransmitted_invite_absorbed_with_last_response(self, engine):
        core = make_core(engine)
        invite, __ = self.setup_call(engine, core)
        actions = drive(engine, core.process(invite.render(),
                                             ("client1", 20000)))
        # The stateful proxy replays the TRYING, and does NOT forward again.
        assert len(actions) == 1
        assert parse_message(actions[0].text).status == 100
        assert core.stats.retransmissions_absorbed == 1

    def test_duplicate_invite_after_completion_absorbed_within_linger(
            self, engine):
        """A duplicate branch arriving *after* the final response but
        inside GC_LINGER_US must hit the lingering transaction: the 200
        is replayed from state, nothing is re-routed, and the proxy
        counts an absorption, not a new transaction."""
        from repro.proxy.core import GC_LINGER_US

        core = make_core(engine)
        invite, actions = self.setup_call(engine, core)
        forwarded = parse_message(actions[1].text)
        ok = bob().response_for(forwarded, 200, to_tag="bt")
        drive(engine, core.process(ok.render(), ("client2", 40000)))
        assert core.stats.invite_completed == 1
        created_before = core.stats.transactions_created

        engine.run(until=engine.now + GC_LINGER_US / 2.0)
        actions = drive(engine, core.process(invite.render(),
                                             ("client1", 20000)))
        assert core.stats.retransmissions_absorbed == 1
        assert core.stats.transactions_created == created_before
        # The best (final) response is replayed to the caller; the callee
        # never sees the duplicate.
        assert len(actions) == 1
        replay = parse_message(actions[0].text)
        assert replay.status == 200
        assert isinstance(actions[0].target, ToSource)
        assert actions[0].target.source == ("client1", 20000)

    def test_retransmission_timer_armed_for_udp_only(self, engine):
        core = make_core(engine, transport="udp")
        self.setup_call(engine, core)
        assert len(core.timer_list) == 1
        core_tcp = make_core(engine, transport="tcp")
        register(engine, core_tcp, bob("tcp"), "conn")
        invite = alice("tcp").invite("bob")
        drive(engine, core_tcp.process(invite.render(), "conn"))
        assert len(core_tcp.timer_list) == 0


class TestResponseRelay:
    def relay_response(self, engine, core, status=200):
        register(engine, core, bob(), ("client2", 40000))
        invite = alice().invite("bob")
        actions = drive(engine, core.process(invite.render(),
                                             ("client1", 20000)))
        forwarded = parse_message(actions[1].text)
        response = bob().response_for(forwarded, status, to_tag="bt")
        return drive(engine, core.process(response.render(),
                                          ("client2", 40000)))

    def test_response_pops_our_via_and_goes_to_caller(self, engine):
        core = make_core(engine)
        actions = self.relay_response(engine, core)
        assert len(actions) == 1
        relayed = parse_message(actions[0].text)
        assert relayed.status == 200
        assert len(relayed.get_all("Via")) == 1
        assert relayed.top_via.host == "client1"
        assert isinstance(actions[0].target, ToSource)
        assert actions[0].target.source == ("client1", 20000)

    def test_final_response_completes_transaction(self, engine):
        core = make_core(engine)
        self.relay_response(engine, core, status=200)
        assert core.stats.invite_completed == 1
        assert core.stats.transactions_completed == 1

    def test_provisional_response_does_not_complete(self, engine):
        core = make_core(engine)
        self.relay_response(engine, core, status=180)
        assert core.stats.transactions_completed == 0

    def test_stray_response_dropped(self, engine):
        core = make_core(engine)
        response = bob().response_for(alice().invite("bob"), 200)
        actions = drive(engine, core.process(response.render(),
                                             ("client2", 40000)))
        assert actions == []
        assert core.stats.routing_failures == 1


class TestByeAndAck:
    def test_bye_routed_to_contact_uri_directly(self, engine):
        core = make_core(engine)
        bye = alice().invite("bob")  # craft a BYE at bob's contact
        from repro.sip.message import SipRequest
        from repro.sip.uri import SipUri
        bye = SipRequest("BYE", SipUri.parse("sip:bob@client2:40000"))
        bye.add("Via", "SIP/2.0/UDP client1:20000;branch=z9hG4bKbye1")
        bye.add("Max-Forwards", "70")
        bye.add("From", "<sip:alice@example.com>;tag=a")
        bye.add("To", "<sip:bob@example.com>;tag=b")
        bye.add("Call-ID", "c1")
        bye.add("CSeq", "2 BYE")
        bye.add("Content-Length", "0")
        actions = drive(engine, core.process(bye.render(),
                                             ("client1", 20000)))
        assert len(actions) == 1  # no TRYING for non-INVITE
        target = actions[0].target
        assert isinstance(target, ToBinding)
        assert target.binding.addr == "client2"
        assert target.binding.port == 40000

    def test_ack_forwarded_statelessly(self, engine):
        core = make_core(engine)
        register(engine, core, bob(), ("client2", 40000))
        invite, ack = an_invite_and_its_ack()
        drive(engine, core.process(invite.render(), ("client1", 20000)))
        created = core.stats.transactions_created
        actions = drive(engine, core.process(ack.render(),
                                             ("client1", 20000)))
        assert len(actions) == 1
        assert parse_message(actions[0].text).method == "ACK"
        assert core.stats.transactions_created == created  # stateless


class TestTimerPass:
    def test_unanswered_invite_retransmitted(self, engine):
        core = make_core(engine)
        register(engine, core, bob(), ("client2", 40000))
        invite = alice().invite("bob")
        drive(engine, core.process(invite.render(), ("client1", 20000)))
        engine.run(until=engine.now + 600_000.0)  # past T1
        actions = drive(engine, core.timer_pass())
        assert len(actions) == 1
        assert actions[0].kind == "retransmit"
        assert core.stats.retransmissions_sent == 1

    def test_answered_invite_not_retransmitted(self, engine):
        core = make_core(engine)
        register(engine, core, bob(), ("client2", 40000))
        invite = alice().invite("bob")
        fwd = drive(engine, core.process(invite.render(),
                                         ("client1", 20000)))
        response = bob().response_for(parse_message(fwd[1].text), 200,
                                      to_tag="bt")
        drive(engine, core.process(response.render(), ("client2", 40000)))
        engine.run(until=engine.now + 600_000.0)
        actions = drive(engine, core.timer_pass())
        assert actions == []

    def test_gc_removes_completed_transaction(self, engine):
        core = make_core(engine)
        register(engine, core, bob(), ("client2", 40000))
        invite = alice().invite("bob")
        fwd = drive(engine, core.process(invite.render(),
                                         ("client1", 20000)))
        response = bob().response_for(parse_message(fwd[1].text), 200,
                                      to_tag="bt")
        drive(engine, core.process(response.render(), ("client2", 40000)))
        assert len(core.txn_table) == 1
        engine.run(until=engine.now + 2_000_000.0)  # past GC linger
        drive(engine, core.timer_pass())
        assert len(core.txn_table) == 0

    def test_retransmissions_give_up_after_64_t1(self, engine):
        core = make_core(engine)
        register(engine, core, bob(), ("client2", 40000))
        invite = alice().invite("bob")
        drive(engine, core.process(invite.render(), ("client1", 20000)))
        # Walk sim time forward well past 64*T1 running timer passes.
        for __ in range(80):
            engine.run(until=engine.now + 500_000.0)
            drive(engine, core.timer_pass())
        assert core.stats.transactions_timed_out == 1
        assert len(core.txn_table) == 0


class TestMalformed:
    def test_garbage_counts_parse_error(self, engine):
        core = make_core(engine)
        actions = drive(engine, core.process("NOT SIP\r\n\r\n",
                                             ("client1", 20000)))
        assert actions == []
        assert core.stats.parse_errors == 1

    def test_unsupported_method_gets_501(self, engine):
        core = make_core(engine)
        from repro.sip.message import SipRequest
        from repro.sip.uri import SipUri
        options = SipRequest("OPTIONS", SipUri.parse("sip:example.com"))
        options.add("Via", "SIP/2.0/UDP client1:20000;branch=z9hG4bKopt")
        options.add("Call-ID", "c")
        options.add("CSeq", "1 OPTIONS")
        options.add("Content-Length", "0")
        actions = drive(engine, core.process(options.render(),
                                             ("client1", 20000)))
        assert parse_message(actions[0].text).status == 501

    @pytest.mark.parametrize("name, value", [
        ("Via", "garbage"), ("CSeq", "abc INVITE"), ("Max-Forwards", "x")])
    def test_unparsable_request_header_counts_parse_error(self, engine, name,
                                                          value):
        """A value that does not parse ends the message, not the worker."""
        core = make_core(engine)
        register(engine, core, bob(), ("client2", 40000))
        invite = alice().invite("bob")
        invite.set(name, value)
        actions = drive(engine, core.process(invite.render(),
                                             ("client1", 20000)))
        assert actions == []
        assert core.stats.parse_errors == 1
        assert core.stats.transactions_created == 0

    @pytest.mark.parametrize("name", ["Contact", "To"])
    def test_unparsable_register_address_gets_400(self, engine, name):
        core = make_core(engine)
        register_ = bob().register()
        register_.set(name, "<sip:bob@client2")  # unterminated name-addr
        actions = drive(engine, core.process(register_.render(),
                                             ("client2", 40000)))
        assert [parse_message(a.text).status for a in actions] == [400]
        assert core.stats.parse_errors == 1
        assert len(core.location) == 0

    @pytest.mark.parametrize("stateful, bad", [(True, 0), (False, 0),
                                               (False, 1)])
    def test_unparsable_response_via_counts_parse_error(self, engine,
                                                        stateful, bad):
        """Our Via (``bad`` 0) or, proxying statelessly, the next one (1)."""
        core = make_core(engine, stateful=stateful)
        __, actions = TestInvite().setup_call(engine, core)
        ringing = bob().response_for(parse_message(actions[-1].text), 180,
                                     to_tag="t")
        vias = [i for i, (n, __) in enumerate(ringing.headers) if n == "Via"]
        ringing.headers[vias[bad]] = ("Via", "garbage")
        actions = drive(engine, core.process(ringing.render(),
                                             ("client2", 40000)))
        assert actions == []
        assert core.stats.parse_errors == 1


class TestMandatoryHeaders:
    """RFC 3261 §16.3 step 1: a request missing To, From, Call-ID, CSeq or
    Via is answered 400 (an ACK dropped), charged only its parse."""

    def send_without(self, engine, core, request, name):
        request.headers = [(n, v) for n, v in request.headers if n != name]
        text = request.render()
        start = engine.now
        actions = drive(engine, core.process(text, ("client1", 20000)))
        charged = engine.now - start
        assert charged == pytest.approx(
            core.costs.parse_cost(len(text), len(core.location)))
        return actions

    @pytest.mark.parametrize("name", ["Call-ID", "CSeq", "From", "To", "Via"])
    def test_invite_missing_header_gets_400(self, engine, name):
        core = make_core(engine)
        register(engine, core, bob(), ("client2", 40000))
        actions = self.send_without(engine, core, alice().invite("bob"), name)
        assert [parse_message(a.text).status for a in actions] == [400]
        assert isinstance(actions[0].target, ToSource)
        assert core.stats.parse_errors == 1
        assert core.stats.transactions_created == 0

    def test_ack_missing_to_is_dropped(self, engine):
        core = make_core(engine)
        register(engine, core, bob(), ("client2", 40000))
        __, ack = an_invite_and_its_ack()
        actions = self.send_without(engine, core, ack, "To")
        assert actions == []
        assert core.stats.parse_errors == 1


@pytest.mark.parametrize("path", ["template", "model"])
def test_ack_with_max_forwards_zero_is_not_forwarded(engine, monkeypatch,
                                                     path):
    """RFC 3261 §16.3 step 2: an ACK that may go no further is dropped —
    an ACK gets no 483 — and counted as unroutable, whichever way the
    proxy reads it."""
    core = make_core(engine)
    register(engine, core, bob(), ("client2", 40000))
    invite, ack = an_invite_and_its_ack()
    drive(engine, core.process(invite.render(), ("client1", 20000)))
    ack.set("Max-Forwards", "0")
    text = ack.render()
    assert proxy_read(text) is not None
    if path == "model":
        monkeypatch.setattr("repro.proxy.core.proxy_read", lambda text: None)
    actions = drive(engine, core.process(text, ("client1", 20000)))
    assert actions == []
    assert core.stats.routing_failures == 1
    assert core.stats.parse_errors == 0
