"""Unit tests for structured SIP headers."""

import pytest

from repro.sip.headers import Address, CSeq, Via


class TestVia:
    def test_parse(self):
        via = Via.parse("SIP/2.0/UDP client1:40000;branch=z9hG4bKabc123")
        assert via.transport == "UDP"
        assert via.host == "client1"
        assert via.port == 40000
        assert via.branch == "z9hG4bKabc123"

    def test_default_port(self):
        via = Via.parse("SIP/2.0/TCP proxy.example.com;branch=z9hG4bKx")
        assert via.port == 5060

    def test_render_roundtrip(self):
        text = "SIP/2.0/TCP host.example.com:5061;branch=z9hG4bKdef;rport"
        assert Via.parse(text).render() == text

    def test_extra_params(self):
        via = Via.parse("SIP/2.0/UDP h:1;branch=z9hG4bKq;received=10.0.0.1")
        assert via.params["received"] == "10.0.0.1"

    @pytest.mark.parametrize("bad", ["UDP host:5060", "SIP/2.0 host",
                                     "SIP/2.0/UDP"])
    def test_malformed(self, bad):
        with pytest.raises(ValueError):
            Via.parse(bad)


class TestCSeq:
    def test_parse(self):
        cseq = CSeq.parse("314159 INVITE")
        assert cseq.number == 314159
        assert cseq.method == "INVITE"

    def test_render(self):
        assert CSeq(2, "BYE").render() == "2 BYE"

    def test_equality(self):
        assert CSeq.parse("1 INVITE") == CSeq(1, "invite")

    @pytest.mark.parametrize("bad", ["INVITE", "x INVITE", "1 2 3"])
    def test_malformed(self, bad):
        with pytest.raises(ValueError):
            CSeq.parse(bad)


class TestAddress:
    def test_parse_name_addr_with_tag(self):
        addr = Address.parse('"Alice" <sip:alice@example.com>;tag=88sja8x')
        assert addr.display == "Alice"
        assert addr.uri.user == "alice"
        assert addr.tag == "88sja8x"

    def test_parse_bare_addr_spec(self):
        addr = Address.parse("sip:bob@example.com;tag=99")
        assert addr.uri.user == "bob"
        assert addr.tag == "99"
        # tag is a header param, not part of the URI
        assert "tag" not in addr.uri.params

    def test_angle_brackets_keep_uri_params(self):
        addr = Address.parse("<sip:bob@example.com;transport=tcp>;tag=7")
        assert addr.uri.params == {"transport": "tcp"}
        assert addr.tag == "7"

    def test_render_roundtrip(self):
        text = '"Bob" <sip:bob@example.com:5062>;tag=abc'
        assert Address.parse(text).render() == text

    def test_unterminated_raises(self):
        with pytest.raises(ValueError):
            Address.parse("<sip:a@b.c")
