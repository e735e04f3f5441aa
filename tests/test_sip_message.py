"""Unit tests for the SIP message model and serialization."""

import pytest

from repro.sip.headers import Address, Via
from repro.sip.message import SipRequest, SipResponse
from repro.sip.parser import parse_message
from repro.sip.uri import SipUri


def make_invite():
    request = SipRequest("INVITE", SipUri.parse("sip:bob@example.com"),
                         body="v=0\r\n")
    request.add("Via", "SIP/2.0/UDP client1:40000;branch=z9hG4bK1")
    request.add("Max-Forwards", "70")
    request.add("From", "<sip:alice@example.com>;tag=a1")
    request.add("To", "<sip:bob@example.com>")
    request.add("Call-ID", "call-1@client1")
    request.add("CSeq", "1 INVITE")
    request.add("Content-Length", "5")
    return request


def test_start_lines():
    assert make_invite().start_line() == "INVITE sip:bob@example.com SIP/2.0"
    assert SipResponse(200).start_line() == "SIP/2.0 200 OK"
    assert SipResponse(180).reason == "Ringing"


def test_get_is_case_insensitive():
    request = make_invite()
    assert request.get("call-id") == "call-1@client1"
    assert request.get("CALL-ID") == "call-1@client1"
    assert request.get("Nope") is None


def test_get_all_and_via_stacking():
    request = make_invite()
    request.add_first("Via", "SIP/2.0/UDP proxy:5060;branch=z9hG4bK2")
    vias = [Via.parse(value) for value in request.get_all("Via")]
    assert len(vias) == 2
    assert vias[0].host == "proxy"
    assert request.top_via.branch == "z9hG4bK2"


def test_set_replaces_first():
    request = make_invite()
    request.set("Max-Forwards", "69")
    assert request.get("Max-Forwards") == "69"
    assert len(request.get_all("Max-Forwards")) == 1


def test_remove_first():
    request = make_invite()
    request.add_first("Via", "SIP/2.0/UDP proxy:5060;branch=z9hG4bK2")
    removed = request.remove_first("Via")
    assert "proxy" in removed
    assert request.top_via.host == "client1"


def test_structured_accessors():
    request = make_invite()
    assert request.call_id == "call-1@client1"
    assert request.cseq.method == "INVITE"
    assert Address.parse(request.get("From")).tag == "a1"
    assert request.to_addr.uri.user == "bob"
    assert request.max_forwards == 70
    assert request.get("Content-Length") == "5"


def test_render_fixes_content_length():
    request = make_invite()
    request.body = "longer body than declared"
    text = request.render()
    assert f"Content-Length: {len(request.body)}" in text
    parsed = parse_message(text)
    assert parsed.body == request.body


def test_render_appends_content_length_if_missing():
    response = SipResponse(200)
    response.add("Call-ID", "x")
    assert "Content-Length: 0" in response.render()


def test_transaction_key_matches_ack_to_invite():
    request = make_invite()
    ack = SipRequest("ACK", request.uri)
    ack.add("Via", request.get("Via"))
    ack.add("CSeq", "1 ACK")
    assert ack.transaction_key() == request.transaction_key()


def test_response_classification():
    assert not SipResponse(100).is_final
    assert SipResponse(200).is_final
    assert SipResponse(486).is_final
