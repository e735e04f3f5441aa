"""Unit tests for SIP parsing and stream framing."""

import pytest

from repro.sip.message import SipRequest, SipResponse
from repro.sip.parser import SipParseError, StreamFramer, parse_message

INVITE_TEXT = (
    "INVITE sip:bob@example.com SIP/2.0\r\n"
    "Via: SIP/2.0/UDP client1:40000;branch=z9hG4bKnashds8\r\n"
    "Max-Forwards: 70\r\n"
    "From: \"Alice\" <sip:alice@example.com>;tag=1928301774\r\n"
    "To: <sip:bob@example.com>\r\n"
    "Call-ID: a84b4c76e66710@client1\r\n"
    "CSeq: 314159 INVITE\r\n"
    "Contact: <sip:alice@client1:40000>\r\n"
    "Content-Type: application/sdp\r\n"
    "Content-Length: 4\r\n"
    "\r\n"
    "v=0\n"
)

OK_TEXT = (
    "SIP/2.0 200 OK\r\n"
    "Via: SIP/2.0/UDP client1:40000;branch=z9hG4bKnashds8\r\n"
    "From: <sip:alice@example.com>;tag=1928301774\r\n"
    "To: <sip:bob@example.com>;tag=a6c85cf\r\n"
    "Call-ID: a84b4c76e66710@client1\r\n"
    "CSeq: 314159 INVITE\r\n"
    "Content-Length: 0\r\n"
    "\r\n"
)


def test_parse_request():
    msg = parse_message(INVITE_TEXT)
    assert isinstance(msg, SipRequest)
    assert msg.method == "INVITE"
    assert msg.uri.user == "bob"
    assert msg.body == "v=0\n"
    assert msg.cseq.number == 314159


def test_parse_response():
    msg = parse_message(OK_TEXT)
    assert isinstance(msg, SipResponse)
    assert msg.status == 200
    assert msg.reason == "OK"
    assert msg.to_addr.tag == "a6c85cf"


def test_roundtrip_request():
    msg = parse_message(INVITE_TEXT)
    assert parse_message(msg.render()).render() == msg.render()


def test_compact_header_forms():
    text = (
        "BYE sip:bob@example.com SIP/2.0\r\n"
        "v: SIP/2.0/UDP client1:40000;branch=z9hG4bKq\r\n"
        "f: <sip:alice@example.com>;tag=1\r\n"
        "t: <sip:bob@example.com>;tag=2\r\n"
        "i: call-9\r\n"
        "CSeq: 2 BYE\r\n"
        "l: 0\r\n"
        "\r\n"
    )
    msg = parse_message(text)
    assert msg.call_id == "call-9"
    assert msg.top_via.host == "client1"
    assert msg.get("Content-Length") == "0"


def test_header_name_canonicalization():
    text = (
        "OPTIONS sip:example.com SIP/2.0\r\n"
        "CALL-ID: x\r\n"
        "content-length: 0\r\n"
        "\r\n"
    )
    msg = parse_message(text)
    assert msg.get("Call-ID") == "x"


def test_folded_header_continuation():
    text = (
        "OPTIONS sip:example.com SIP/2.0\r\n"
        "Subject: first part\r\n"
        " second part\r\n"
        "Content-Length: 0\r\n"
        "\r\n"
    )
    msg = parse_message(text)
    assert msg.get("Subject") == "first part second part"


@pytest.mark.parametrize("bad", [
    "",
    "NOT A SIP MESSAGE",
    "INVITE sip:bob@example.com\r\n\r\n",           # missing version
    "SIP/2.0 999999 Weird\r\n\r\n",                  # status out of range
    "INVITE sip:bob@x SIP/2.0\r\nBadHeader\r\n\r\n",  # no colon
    "INVITE http://x SIP/2.0\r\n\r\n",               # non-sip uri
])
def test_malformed_messages_rejected(bad):
    with pytest.raises(SipParseError):
        parse_message(bad)


def test_content_length_mismatch_rejected():
    text = (
        "INVITE sip:bob@example.com SIP/2.0\r\n"
        "Content-Length: 10\r\n"
        "\r\n"
        "short"
    )
    with pytest.raises(SipParseError):
        parse_message(text)


class TestStreamFramer:
    def test_single_message(self):
        framer = StreamFramer()
        out = framer.feed(INVITE_TEXT)
        assert out == [INVITE_TEXT]
        # nothing is left over to prefix the next message
        assert framer.feed(INVITE_TEXT) == [INVITE_TEXT]

    def test_message_split_across_feeds(self):
        framer = StreamFramer()
        mid = len(INVITE_TEXT) // 2
        assert framer.feed(INVITE_TEXT[:mid]) == []
        assert framer.feed(INVITE_TEXT[mid:]) == [INVITE_TEXT]

    def test_two_messages_in_one_feed(self):
        framer = StreamFramer()
        out = framer.feed(INVITE_TEXT + OK_TEXT)
        assert out == [INVITE_TEXT, OK_TEXT]

    def test_body_split_at_boundary(self):
        framer = StreamFramer()
        head_end = INVITE_TEXT.index("\r\n\r\n") + 4
        assert framer.feed(INVITE_TEXT[:head_end]) == []
        assert framer.feed(INVITE_TEXT[head_end:]) == [INVITE_TEXT]

    def test_byte_at_a_time(self):
        framer = StreamFramer()
        collected = []
        for char in INVITE_TEXT + OK_TEXT:
            collected.extend(framer.feed(char))
        assert collected == [INVITE_TEXT, OK_TEXT]

    def test_compact_content_length_framing(self):
        text = ("BYE sip:b@x SIP/2.0\r\n"
                "l: 3\r\n"
                "\r\n"
                "abc")
        framer = StreamFramer()
        assert framer.feed(text) == [text]

    def test_oversized_buffer_raises(self):
        framer = StreamFramer(max_message_bytes=64)
        with pytest.raises(SipParseError):
            framer.feed("x" * 100)

    def test_framed_counter(self):
        framer = StreamFramer()
        framer.feed(INVITE_TEXT + OK_TEXT)
        assert framer.messages_framed == 2

    @pytest.mark.parametrize("length", ["-100000", "-5"])
    def test_negative_content_length_rejected(self, length):
        """A negative length cut empty frames forever (or garbage ones);
        ``_try_extract`` is called directly so a regression fails instead
        of hanging in ``feed``'s loop."""
        framer = StreamFramer()
        framer._buffer = OK_TEXT.replace("Content-Length: 0",
                                         f"Content-Length: {length}")
        with pytest.raises(SipParseError, match="negative"):
            framer._try_extract()
