"""Unit tests for message construction."""

import random

import pytest

from repro.sip.builder import MessageBuilder
from repro.sip.headers import Address
from repro.sip.parser import parse_message
from repro.sip.reader import PhoneMessage


def from_tag(message):
    return Address.parse(message.get("From")).tag


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
    assert from_tag(invite) is not None
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
    __, ok = bob.answer_texts(PhoneMessage(alice.invite("bob").render()), "t")
    assert parse_message(ok).contact.uri.host == "client2"


def confirmed(alice, bob):
    """(INVITE, 200 OK, the caller's confirmed dialog) of one call."""
    text, __, dialog = alice.invite_text("bob")
    __, ok = bob.answer_texts(PhoneMessage(text), "bobtag")
    dialog.confirm(PhoneMessage(ok))
    return parse_message(text), parse_message(ok), dialog


def test_ack_matches_invite_dialog(alice, bob):
    invite, ok, dialog = confirmed(alice, bob)
    ack = parse_message(alice.ack_text(dialog))
    assert ack.method == "ACK"
    assert ack.call_id == invite.call_id
    assert ack.cseq.number == invite.cseq.number
    assert ack.cseq.method == "ACK"
    assert ack.get("From") == invite.get("From")
    assert ack.get("To") == ok.get("To")
    assert ack.uri.host == "client2"  # routed to the contact
    # New branch per RFC 3261 §17.1.1.3 for 2xx ACK.
    assert ack.top_via.branch != invite.top_via.branch


def test_bye_from_dialog(alice, bob):
    invite, ok, dialog = confirmed(alice, bob)
    text, branch = alice.bye_text(dialog)
    bye = parse_message(text)
    assert bye.method == "BYE"
    assert bye.top_via.branch == branch
    assert bye.call_id == invite.call_id
    assert from_tag(bye) == from_tag(invite)
    assert bye.to_addr.tag == "bobtag"
    assert bye.uri.host == "client2"
    assert bye.cseq.number > invite.cseq.number


def test_ack_without_contact_goes_to_the_request_uri(alice, bob):
    text, __, dialog = alice.invite_text("bob")
    ok = bob.response_for(parse_message(text), 200, to_tag="t")
    dialog.confirm(PhoneMessage(ok.render()))
    assert parse_message(alice.ack_text(dialog)).uri.render() == \
        "sip:bob@example.com"


def test_objects_are_the_texts_parsed(alice):
    """There is one wire format: ``register()``/``invite()`` parse what
    ``register_text()``/``invite_text()`` send, byte for byte."""
    twin = MessageBuilder("alice", "example.com", "client1", 40000, "udp",
                          random.Random(1))
    assert alice.register().render() == twin.register_text()[0]
    assert alice.invite("bob").render() == twin.invite_text("bob")[0]


def test_identifiers_are_drawn_in_a_fixed_order():
    """REGISTER draws tag, branch, Call-ID; INVITE branch, tag, Call-ID;
    ACK and BYE a branch each.  All phones share one stream, so this
    order fixes which phone gets which value."""
    draws = []

    class Stream:
        def getrandbits(self, bits):
            draws.append(bits)
            return len(draws)

    builder = MessageBuilder("a", "d", "h", 1, "udp", Stream())
    text, branch, call_id = builder.register_text()
    register = parse_message(text)
    assert from_tag(register) == f"{1:08x}"
    assert branch == register.top_via.branch == f"z9hG4bK{2:012x}"
    assert call_id == register.call_id == f"{3:012x}@h"
    text, branch, dialog = builder.invite_text("b")
    invite = parse_message(text)
    assert branch == invite.top_via.branch == f"z9hG4bK{4:012x}"
    assert from_tag(invite) == f"{5:08x}"
    assert dialog.call_id == invite.call_id == f"{6:012x}@h"
    assert draws == [32, 48, 48, 48, 32, 48]


def test_answer_copies_the_request_lines(alice, bob):
    """180 and 200 repeat the INVITE's Via lines (all of them, in order),
    From, Call-ID and CSeq as received, and its To with our tag."""
    text, __, __ = alice.invite_text("bob")
    forwarded = text.replace(
        "Via: ", "Via: SIP/2.0/UDP proxy:5060;branch=z9hG4bK-pxy-1\r\nVia: ",
        1)
    invite = parse_message(forwarded)
    ringing, ok = bob.answer_texts(PhoneMessage(forwarded), "bobtag")
    for text, status in ((ringing, 180), (ok, 200)):
        response = parse_message(text)
        assert response.status == status
        assert response.get_all("Via") == invite.get_all("Via")
        for name in ("From", "Call-ID", "CSeq"):
            assert response.get(name) == invite.get(name)
        assert response.get("To") == invite.get("To") + ";tag=bobtag"
    assert ringing == bob.response_for(invite, 180, to_tag="bobtag").render()
    assert parse_message(ok).contact.uri.host == "client2"
    assert parse_message(ringing).contact is None


def test_ok_to_a_bye_adds_no_tag(alice, bob):
    invite, ok, dialog = confirmed(alice, bob)
    text, __ = alice.bye_text(dialog)
    response = parse_message(bob.ok_text(PhoneMessage(text)))
    assert response.status == 200
    assert response.get("To") == parse_message(text).get("To")


def without(text, name):
    """``text`` with its ``name`` header line taken out."""
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith(name + ": "))


@pytest.mark.parametrize("name", ["From", "To", "Call-ID", "CSeq"])
def test_a_request_missing_a_copied_header_gets_no_answer(alice, bob, name):
    """A response copies From, To, Call-ID and CSeq: it cannot be made,
    rather than made with a value invented for the missing one."""
    invite, ok, dialog = confirmed(alice, bob)
    bye = PhoneMessage(without(alice.bye_text(dialog)[0], name))
    with pytest.raises(ValueError):
        bob.ok_text(bye)
    invite = without(alice.invite_text("bob")[0], name)
    with pytest.raises(ValueError):
        bob.answer_texts(PhoneMessage(invite), "t")
    with pytest.raises(ValueError):
        bob.response_for(parse_message(invite), 180)
