"""Unit tests for UAC/UAS transaction state machines."""

import gc
import random
import weakref

import pytest

from repro.sim.engine import Engine, Scheduled
from repro.sip.builder import MessageBuilder
from repro.sip.dialogs import Dialog
from repro.sip.parser import parse_message
from repro.sip.transaction import (
    ClientTransaction,
    ServerTransaction,
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


def stamp(engine, sink):
    """A send_fn that records the instant of every send."""
    def send(text):
        sink.append(engine.now)
    return send


@pytest.mark.parametrize("side", ["client", "server"])
def test_backoff_caps_at_8_t1(engine, alice, bob, side):
    """Timer A (client) and timer G (server) double from T1 up to
    T2 = 8×T1, whatever T1 is, until timer B/H gives up at 64×T1."""
    sent = []
    invite = alice.invite("bob")
    if side == "client":
        txn = ClientTransaction(engine, invite, stamp(engine, sent),
                                reliable=False, t1_us=10_000.0)
        txn.start()
    else:
        txn = ServerTransaction(engine, stamp(engine, sent), reliable=False,
                                t1_us=10_000.0)
        txn.respond(bob.response_for(invite, 200, to_tag="b"))
    engine.run(until=1_000_000.0)
    gaps = [later - earlier for earlier, later in zip(sent, sent[1:])]
    assert gaps == [10_000.0, 20_000.0, 40_000.0] + [80_000.0] * 7
    assert txn.state is TxnState.TERMINATED


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
        txn = ClientTransaction(engine, alice.invite("bob"), collect(wire),
                                reliable=False, t1_us=500_000.0)
        txn.start()
        engine.run(until=3_400_000.0)  # retransmits at 0.5s, 1.5s (next: 3.5s)
        assert len(wire) == 3
        assert txn.retransmissions == 2
        assert wire == [txn.request.render()] * 3  # verbatim, byte for byte

    def test_non_invite_retransmits_first_send_in_proceeding(
            self, engine, alice, bob):
        """Timer E keeps firing after a 1xx (at T2 = 8×T1), always the same
        text."""
        wire = []
        invite = alice.invite("bob")
        bye = alice.bye(Dialog.from_invite_success(
            invite, bob.response_for(invite, 200, to_tag="b")))
        txn = ClientTransaction(engine, bye, collect(wire), reliable=False,
                                t1_us=10_000.0)
        txn.start()
        engine.run(until=25_000.0)  # timer E at 10 ms
        txn.handle_response(bob.response_for(bye, 100))
        engine.run(until=200_000.0)  # at 30 ms, then every 80 ms
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
        finals = []
        invite = alice.invite("bob")
        txn = ClientTransaction(engine, invite, collect([]), reliable=False,
                                on_final=finals.append)
        txn.start()
        ok = bob.response_for(invite, 200, to_tag="b")
        txn.handle_response(ok)
        assert txn.state is TxnState.TERMINATED
        assert finals == [ok]
        fired = engine.events_fired
        engine.run(until=60_000_000.0)
        assert engine.events_fired == fired  # no timers left

    def test_timeout_fires_after_64_t1(self, engine, alice):
        timeouts = []
        txn = ClientTransaction(
            engine, alice.invite("bob"), collect([]), reliable=False,
            t1_us=10_000.0,
            on_final=lambda final: timeouts.append((engine.now, final)))
        txn.start()
        engine.run(until=10_000_000.0)
        assert timeouts == [(pytest.approx(640_000.0), None)]
        assert txn.state is TxnState.TERMINATED

    def test_timeout_still_fires_after_a_provisional(
            self, engine, alice, bob):
        """A 1xx stops timer A but not timer B: a call that rings and is
        never answered still ends with ``on_final(None)`` at 64×T1."""
        wire, finals = [], []
        invite = alice.invite("bob")
        txn = ClientTransaction(
            engine, invite, collect(wire), reliable=False, t1_us=10_000.0,
            on_final=lambda final: finals.append((engine.now, final)))
        txn.start()
        txn.handle_response(bob.response_for(invite, 180, to_tag="b"))
        engine.run(until=10_000_000.0)
        assert len(wire) == 1
        assert finals == [(pytest.approx(640_000.0), None)]
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
        txn = ServerTransaction(engine, collect(wire), reliable=False)
        txn.respond(bob.response_for(invite, 180, to_tag="b"))
        assert len(wire) == 1
        assert parse_message(wire[0]).status == 180

    def test_invite_final_retransmits_until_ack(self, engine, alice, bob):
        wire = []
        invite = alice.invite("bob")
        txn = ServerTransaction(engine, collect(wire), reliable=False,
                                t1_us=100_000.0)
        txn.respond(bob.response_for(invite, 200, to_tag="b"))
        engine.run(until=350_000.0)  # retransmits at 100ms and 300ms
        assert len(wire) == 3
        assert wire == [wire[0]] * 3
        txn.handle_ack()
        engine.run(until=10_000_000.0)
        assert len(wire) == 3
        assert txn.terminated

    @pytest.mark.parametrize("reliable, timers_armed", [(True, 1),
                                                        (False, 2)])
    def test_reliable_final_not_retransmitted(self, engine, alice, bob,
                                              reliable, timers_armed):
        """The 180 arms nothing; the 200 arms timer H, and timer G too
        unless the transport is reliable."""
        wire = []
        invite = alice.invite("bob")
        txn = ServerTransaction(engine, collect(wire), reliable)
        scheduled = engine.events_scheduled
        txn.respond(bob.response_for(invite, 180, to_tag="b"))
        assert engine.events_scheduled == scheduled
        txn.respond(bob.response_for(invite, 200, to_tag="b"))
        assert engine.events_scheduled == scheduled + timers_armed
        engine.run(until=10_000_000.0)
        assert (len(wire) == 2) is reliable

    def test_request_retransmission_replays_response(self, engine, alice, bob):
        wire = []
        invite = alice.invite("bob")
        txn = ServerTransaction(engine, collect(wire), reliable=False)
        txn.respond(bob.response_for(invite, 180, to_tag="b"))
        txn.handle_request_retransmission()
        assert len(wire) == 2
        assert wire[0] == wire[1]

    def test_request_retransmission_before_any_response_is_absorbed(
            self, engine, alice, bob):
        """Until the first response there is nothing to replay: a
        duplicate request sends nothing and arms no timer."""
        wire = []
        invite = alice.invite("bob")
        txn = ServerTransaction(engine, collect(wire), reliable=False)
        scheduled = engine.events_scheduled
        txn.handle_request_retransmission()
        assert wire == []
        assert engine.events_scheduled == scheduled
        txn.respond(bob.response_for(invite, 180, to_tag="b"))
        assert len(wire) == 1

    def test_every_resend_is_the_last_response_verbatim(
            self, engine, alice, bob):
        """Replays (duplicate INVITE) and timer G repeat the text of the
        last response sent, byte for byte: 180 until the 200, then 200."""
        wire = []
        invite = alice.invite("bob")
        txn = ServerTransaction(engine, collect(wire), reliable=False,
                                t1_us=10_000.0)
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
        invite = alice.invite("bob")
        txn = ServerTransaction(engine, collect([]), reliable=False,
                                t1_us=1_000.0)
        txn.respond(bob.response_for(invite, 200, to_tag="b"))
        engine.run(until=1_000_000.0)
        assert txn.terminated


@pytest.fixture
def no_collector():
    """Only reference counts may free anything while the test runs."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


@pytest.fixture
def spent_cancels(monkeypatch):
    """Counts ``Scheduled.cancel()`` calls on a handle that was already
    cancelled or had fired: no-op calls a transaction avoids by clearing
    a handle when it cancels it or it fires."""
    spent = []
    cancel = Scheduled.cancel

    def counted(handle):
        if handle.cancelled:
            spent.append(handle.time)
        cancel(handle)

    monkeypatch.setattr(Scheduled, "cancel", counted)
    return spent


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
    def test_client_transaction(self, engine, alice, bob, ending, reliable,
                                spent_cancels):
        """``on_final`` runs once: with the final response, or with None
        at 64×T1 or on abort(); never for a 1xx, never after cancel().
        No timer is cancelled after a 1xx cancelled it or after it
        fired."""
        seen = []
        invite = alice.invite("bob")
        # Like the phone's, the callbacks close over the transaction's user.
        box = [ClientTransaction(
            engine, invite, collect([]), reliable, t1_us=10_000.0,
            on_final=lambda final: seen.append(
                (box, "timeout" if final is None else final.status)))]
        txn = box[0]
        txn.start()
        engine.run(until=35_000.0)  # unreliable: timer A fired twice
        assert txn.retransmissions == (0 if reliable else 2)
        txn.handle_response(bob.response_for(invite, 180, to_tag="b"))
        assert seen == []  # a 1xx is not final
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
        assert spent_cancels == []
        del txn, seen[:]
        assert dies_by_refcount(box)
        fired = engine.events_fired
        engine.run(until=60_000_000.0)
        assert engine.events_fired == fired  # nothing was left armed

    @pytest.mark.parametrize("reliable", [False, True])
    @pytest.mark.parametrize("ending", ["ack", "give-up"])
    def test_server_transaction(self, engine, alice, bob, ending, reliable,
                                spent_cancels):
        wire = []
        invite = alice.invite("bob")
        box = [ServerTransaction(engine, collect(wire), reliable,
                                 t1_us=10_000.0)]
        txn = box[0]
        txn.respond(bob.response_for(invite, 200, to_tag="b"))
        engine.run(until=35_000.0)  # unreliable: timer G fired twice
        assert len(wire) == (1 if reliable else 3)
        if ending == "ack":
            txn.handle_ack()
        else:
            engine.run(until=700_000.0)  # timer H (64×T1)
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
        assert spent_cancels == []  # nor timer H by its own firing
        del txn
        assert dies_by_refcount(box)
        fired = engine.events_fired
        engine.run(until=60_000_000.0)
        assert engine.events_fired == fired
