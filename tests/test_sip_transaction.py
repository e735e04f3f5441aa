"""Unit tests for UAC/UAS transaction state machines."""

import gc
import random
import weakref

import pytest

from repro.sim.engine import Engine
from repro.sip.builder import MessageBuilder
from repro.sip.dialogs import Dialog
from repro.sip.parser import parse_message
from repro.sip.transaction import (
    ClientTransaction,
    ServerTransaction,
    TransactionTimers,
    TxnState,
)


@pytest.fixture
def alice():
    return MessageBuilder("alice", "example.com", "client1", 40000, "udp",
                          random.Random(1))


@pytest.fixture
def bob():
    return MessageBuilder("bob", "example.com", "client2", 40001, "udp",
                          random.Random(2))


def collect(sink):
    def send(text):
        sink.append(text)
    return send


class TestClientTransaction:
    def test_start_sends_request(self, engine, alice):
        wire = []
        txn = ClientTransaction(engine, alice.invite("bob"), collect(wire),
                                reliable=False)
        txn.start()
        assert len(wire) == 1
        assert wire[0].startswith("INVITE")

    def test_udp_retransmits_with_backoff(self, engine, alice):
        wire = []
        timers = TransactionTimers(t1_us=500_000.0)
        txn = ClientTransaction(engine, alice.invite("bob"), collect(wire),
                                reliable=False, timers=timers)
        txn.start()
        engine.run(until=3_400_000.0)  # retransmits at 0.5s, 1.5s (next: 3.5s)
        assert len(wire) == 3
        assert txn.retransmissions == 2
        assert wire == [txn.request.render()] * 3  # verbatim, byte for byte

    def test_non_invite_retransmits_first_send_in_proceeding(
            self, engine, alice, bob):
        """Timer E keeps firing after a 1xx (at T2), always the same text."""
        wire = []
        invite = alice.invite("bob")
        bye = alice.bye(Dialog.from_invite_success(
            invite, bob.response_for(invite, 200, to_tag="b")))
        txn = ClientTransaction(engine, bye, collect(wire), reliable=False,
                                timers=TransactionTimers(t1_us=10_000.0,
                                                         t2_us=40_000.0))
        txn.start()
        engine.run(until=25_000.0)  # timer E at 10 ms
        txn.handle_response(bob.response_for(bye, 100))
        engine.run(until=200_000.0)  # then every 40 ms
        assert txn.state is TxnState.PROCEEDING
        assert len(wire) >= 5
        assert wire == [bye.render()] * len(wire)

    def test_tcp_never_retransmits(self, engine, alice):
        wire = []
        txn = ClientTransaction(engine, alice.invite("bob"), collect(wire),
                                reliable=True)
        txn.start()
        engine.run(until=10_000_000.0)
        assert len(wire) == 1

    def test_provisional_stops_retransmission(self, engine, alice, bob):
        wire = []
        invite = alice.invite("bob")
        txn = ClientTransaction(engine, invite, collect(wire), reliable=False)
        txn.start()
        ringing = bob.response_for(invite, 180, to_tag="b")
        engine.schedule(100_000.0, txn.handle_response, ringing)
        engine.run(until=5_000_000.0)
        assert len(wire) == 1
        assert txn.state is TxnState.PROCEEDING

    def test_final_response_terminates(self, engine, alice, bob):
        responses = []
        invite = alice.invite("bob")
        txn = ClientTransaction(engine, invite, collect([]), reliable=False,
                                on_response=responses.append)
        txn.start()
        ok = bob.response_for(invite, 200, to_tag="b")
        txn.handle_response(ok)
        assert txn.state is TxnState.TERMINATED
        assert txn.final_response.status == 200
        assert responses == [ok]
        engine.run(until=60_000_000.0)  # no timers left

    def test_timeout_fires_after_64_t1(self, engine, alice):
        timeouts = []
        timers = TransactionTimers(t1_us=10_000.0)
        txn = ClientTransaction(engine, alice.invite("bob"), collect([]),
                                reliable=False, timers=timers,
                                on_timeout=lambda: timeouts.append(engine.now))
        txn.start()
        engine.run(until=10_000_000.0)
        assert timeouts == [pytest.approx(640_000.0)]
        assert txn.state is TxnState.TERMINATED

    def test_matches_by_branch_and_method(self, engine, alice, bob):
        invite = alice.invite("bob")
        txn = ClientTransaction(engine, invite, collect([]), reliable=False)
        ok = bob.response_for(invite, 200, to_tag="b")
        assert txn.matches(ok)
        other = bob.response_for(alice.invite("bob"), 200, to_tag="b")
        assert not txn.matches(other)


class TestServerTransaction:
    def test_respond_sends(self, engine, alice, bob):
        wire = []
        invite = alice.invite("bob")
        txn = ServerTransaction(engine, invite, collect(wire), reliable=False)
        txn.respond(bob.response_for(invite, 180, to_tag="b"))
        assert len(wire) == 1
        assert parse_message(wire[0]).status == 180

    def test_invite_final_retransmits_until_ack(self, engine, alice, bob):
        wire = []
        timers = TransactionTimers(t1_us=100_000.0)
        invite = alice.invite("bob")
        txn = ServerTransaction(engine, invite, collect(wire),
                                reliable=False, timers=timers)
        txn.respond(bob.response_for(invite, 200, to_tag="b"))
        engine.run(until=350_000.0)  # retransmits at 100ms and 300ms
        assert len(wire) == 3
        assert wire == [wire[0]] * 3
        txn.handle_ack()
        engine.run(until=10_000_000.0)
        assert len(wire) == 3
        assert txn.terminated

    def test_reliable_final_not_retransmitted(self, engine, alice, bob):
        wire = []
        invite = alice.invite("bob")
        txn = ServerTransaction(engine, invite, collect(wire), reliable=True)
        txn.respond(bob.response_for(invite, 200, to_tag="b"))
        engine.run(until=10_000_000.0)
        assert len(wire) == 1

    def test_request_retransmission_replays_response(self, engine, alice, bob):
        wire = []
        invite = alice.invite("bob")
        txn = ServerTransaction(engine, invite, collect(wire), reliable=False)
        txn.respond(bob.response_for(invite, 180, to_tag="b"))
        txn.handle_request_retransmission()
        assert len(wire) == 2
        assert wire[0] == wire[1]
        assert txn.request_retransmissions_absorbed == 1

    def test_every_resend_is_the_last_response_verbatim(
            self, engine, alice, bob):
        """Replays (duplicate INVITE) and timer G repeat the text of the
        last response sent, byte for byte: 180 until the 200, then 200."""
        wire = []
        invite = alice.invite("bob")
        txn = ServerTransaction(engine, invite, collect(wire),
                                reliable=False,
                                timers=TransactionTimers(t1_us=10_000.0))
        ringing = bob.response_for(invite, 180, to_tag="b")
        ok = bob.response_for(invite, 200, to_tag="b", with_contact=True)
        txn.respond(ringing)
        txn.handle_request_retransmission()
        txn.respond(ok)
        txn.handle_request_retransmission()
        engine.run(until=35_000.0)  # timer G at 10 ms and 30 ms
        txn.handle_ack()
        txn.handle_request_retransmission()  # absorbed after the ACK too
        assert wire == [ringing.render()] * 2 + [ok.render()] * 5
        assert txn.last_text == ok.render()

    def test_give_up_without_ack(self, engine, alice, bob):
        timers = TransactionTimers(t1_us=1_000.0)
        invite = alice.invite("bob")
        txn = ServerTransaction(engine, invite, collect([]), reliable=False,
                                timers=timers)
        txn.respond(bob.response_for(invite, 200, to_tag="b"))
        engine.run(until=1_000_000.0)
        assert txn.terminated

    def test_key_matches_transaction_key(self, engine, alice, bob):
        invite = alice.invite("bob")
        txn = ServerTransaction(engine, invite, collect([]), reliable=False)
        assert txn.key == invite.transaction_key()


@pytest.fixture
def no_collector():
    """Only reference counts may free anything while the test runs."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def dies_by_refcount(txn_box):
    """Drop the last strong reference (``txn_box`` holds it) and report
    whether the transaction went away without the cyclic collector."""
    ref = weakref.ref(txn_box.pop())
    return ref() is None


CLIENT_ENDINGS = {
    "final 2xx": lambda engine, txn, reply: txn.handle_response(reply(200)),
    "final non-2xx": lambda engine, txn, reply: txn.handle_response(
        reply(486)),
    "cancel": lambda engine, txn, reply: txn.cancel(),
    "timer B/F": lambda engine, txn, reply: engine.run(until=700_000.0),
    "abort": lambda engine, txn, reply: txn.abort(),
}


@pytest.mark.usefixtures("no_collector")
class TestLifetimes:
    """A terminated transaction releases its timers and callbacks, so it —
    and the request, response and user closures hanging off it — is freed
    by reference count (DESIGN.md §3c); tests/test_object_lifetimes.py
    checks the same on whole cells."""

    @pytest.mark.parametrize("reliable", [False, True])
    @pytest.mark.parametrize("ending", sorted(CLIENT_ENDINGS))
    def test_client_transaction(self, engine, alice, bob, ending, reliable):
        seen = []
        invite = alice.invite("bob")
        # Like the phone's, the callbacks close over the transaction's user.
        box = [ClientTransaction(
            engine, invite, collect([]), reliable,
            TransactionTimers(t1_us=10_000.0),
            on_response=lambda response: seen.append((box, response.status)),
            on_timeout=lambda: seen.append((box, "timeout")))]
        txn = box[0]
        txn.start()
        engine.run(until=35_000.0)  # unreliable: timer A fired twice
        assert txn.retransmissions == (0 if reliable else 2)
        CLIENT_ENDINGS[ending](
            engine, txn,
            lambda status: bob.response_for(invite, status, to_tag="b"))
        assert txn.state is TxnState.TERMINATED
        outcomes = [outcome for __, outcome in seen]
        assert outcomes == {"final 2xx": [200], "final non-2xx": [486],
                            "cancel": [], "timer B/F": ["timeout"],
                            "abort": ["timeout"]}[ending]
        # Late arrivals after termination are ignored, not raised on a
        # released timer: a response, both timers, a second cancel/abort.
        txn.handle_response(bob.response_for(invite, 200, to_tag="b"))
        txn._retransmit()
        txn._timed_out()
        txn.abort()
        txn.cancel()
        assert [outcome for __, outcome in seen] == outcomes
        del txn, seen[:]
        assert dies_by_refcount(box)
        fired = engine.events_fired
        engine.run(until=60_000_000.0)
        assert engine.events_fired == fired  # nothing was left armed

    @pytest.mark.parametrize("reliable", [False, True])
    @pytest.mark.parametrize("ending", ["ack", "give-up", "non-INVITE"])
    def test_server_transaction(self, engine, alice, bob, ending, reliable):
        wire = []
        invite = alice.invite("bob")
        request = invite if ending != "non-INVITE" else alice.bye(
            Dialog.from_invite_success(
                invite, bob.response_for(invite, 200, to_tag="b")))
        box = [ServerTransaction(engine, request, collect(wire), reliable,
                                 TransactionTimers(t1_us=10_000.0,
                                                   t4_us=100_000.0))]
        txn = box[0]
        txn.respond(bob.response_for(request, 200, to_tag="b"))
        engine.run(until=35_000.0)  # unreliable INVITE: timer G fired twice
        assert len(wire) == (
            3 if ending != "non-INVITE" and not reliable else 1)
        if ending == "ack":
            txn.handle_ack()
        else:
            engine.run(until=700_000.0)  # timer H (64×T1) / timer J (T4)
        assert txn.terminated
        sent = len(wire)
        # A late timer is ignored; a late duplicate request is still
        # absorbed by replaying the response, exactly as before.
        txn._retransmit()
        txn._give_up()
        txn.handle_ack()
        assert len(wire) == sent
        txn.handle_request_retransmission()
        assert len(wire) == sent + 1 and wire[-1] == wire[0]
        del txn
        assert dies_by_refcount(box)
        fired = engine.events_fired
        engine.run(until=60_000_000.0)
        assert engine.events_fired == fired
