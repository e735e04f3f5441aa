"""Unit tests for message construction."""

import random

import pytest

from repro.sip.builder import MessageBuilder
from repro.sip.dialogs import Dialog
from repro.sip.parser import parse_message


@pytest.fixture
def alice():
    return MessageBuilder("alice", "example.com", "client1", 40000, "udp",
                          random.Random(1))


@pytest.fixture
def bob():
    return MessageBuilder("bob", "example.com", "client2", 40001, "udp",
                          random.Random(2))


def test_register_shape(alice):
    register = alice.register()
    assert register.method == "REGISTER"
    assert register.uri.host == "example.com"
    assert register.to_addr.uri.aor == "alice@example.com"
    assert register.contact.uri.host == "client1"
    assert register.get("Expires") == "3600"
    parse_message(register.render())  # round-trips


def test_invite_shape(alice):
    invite = alice.invite("bob")
    assert invite.method == "INVITE"
    assert invite.uri.aor == "bob@example.com"
    assert invite.from_addr.tag is not None
    assert invite.to_addr.tag is None
    assert invite.top_via.branch.startswith("z9hG4bK")
    assert invite.body.startswith("v=0")
    assert invite.content_length == len(invite.body)
    assert invite.get("Content-Type") == "application/sdp"


def test_invite_is_realistic_size(alice):
    # Real SIP INVITEs run a few hundred bytes to ~1KB.
    size = alice.invite("bob").wire_size
    assert 300 <= size <= 1000


def test_fresh_identifiers_per_invite(alice):
    first = alice.invite("bob")
    second = alice.invite("bob")
    assert first.call_id != second.call_id
    assert first.top_via.branch != second.top_via.branch
    assert first.cseq.number != second.cseq.number


def test_deterministic_given_same_seed():
    a1 = MessageBuilder("a", "d", "h", 1, "udp", random.Random(9))
    a2 = MessageBuilder("a", "d", "h", 1, "udp", random.Random(9))
    assert a1.invite("b").render() == a2.invite("b").render()


def test_response_for_echoes_routing_headers(alice, bob):
    invite = alice.invite("bob")
    ringing = bob.response_for(invite, 180, to_tag="bobtag")
    assert ringing.status == 180
    assert ringing.get("Via") == invite.get("Via")
    assert ringing.get("From") == invite.get("From")
    assert ringing.call_id == invite.call_id
    assert ringing.to_addr.tag == "bobtag"
    assert ringing.cseq.method == "INVITE"


def test_response_with_contact(alice, bob):
    invite = alice.invite("bob")
    ok = bob.response_for(invite, 200, to_tag="t", with_contact=True)
    assert ok.contact.uri.host == "client2"


def test_ack_matches_invite_dialog(alice, bob):
    invite = alice.invite("bob")
    ok = bob.response_for(invite, 200, to_tag="bobtag", with_contact=True)
    ack = alice.ack_for(invite, ok)
    assert ack.method == "ACK"
    assert ack.call_id == invite.call_id
    assert ack.cseq.number == invite.cseq.number
    assert ack.cseq.method == "ACK"
    assert ack.get("To") == ok.get("To")
    assert ack.uri.host == "client2"  # routed to the contact
    # New branch per RFC 3261 §17.1.1.3 for 2xx ACK.
    assert ack.top_via.branch != invite.top_via.branch


def test_bye_from_dialog(alice, bob):
    invite = alice.invite("bob")
    ok = bob.response_for(invite, 200, to_tag="bobtag", with_contact=True)
    dialog = Dialog.from_invite_success(invite, ok)
    bye = alice.bye(dialog)
    assert bye.method == "BYE"
    assert bye.call_id == invite.call_id
    assert bye.from_addr.tag == invite.from_addr.tag
    assert bye.to_addr.tag == "bobtag"
    assert bye.cseq.number > invite.cseq.number
