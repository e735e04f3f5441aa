"""Construction of well-formed SIP messages.

A :class:`MessageBuilder` carries one user agent's identity (URI, contact,
Via parameters) and mints requests with fresh branches, tags, and Call-IDs
from a deterministic RNG stream.  The stream may be shared: the benchmark
phones all draw from one (``"phone-ids"``).  Each value has a fixed width,
so which draws a builder gets changes no message length and no simulated
number (``tests/test_clients_manager.py::
test_identifiers_never_reach_a_result``).
"""

from typing import Optional

from repro.sip.dialogs import Dialog
from repro.sip.headers import Address, CSeq, Via
from repro.sip.message import SipRequest, SipResponse
from repro.sip.uri import SipUri

BRANCH_MAGIC = "z9hG4bK"

#: a representative SDP session description (sizes the INVITE like real traffic)
SDP_TEMPLATE = (
    "v=0\r\n"
    "o={user} 2890844526 2890844526 IN IP4 {host}\r\n"
    "s=Session\r\n"
    "c=IN IP4 {host}\r\n"
    "t=0 0\r\n"
    "m=audio 49172 RTP/AVP 0\r\n"
    "a=rtpmap:0 PCMU/8000\r\n"
)


class MessageBuilder:
    """Builds requests and responses for one user agent."""

    __slots__ = ("user", "domain", "host", "port", "transport", "rng", "_seq")

    def __init__(self, user: str, domain: str, host: str, port: int,
                 transport: str, rng) -> None:
        self.user = user
        self.domain = domain
        self.host = host
        self.port = port
        self.transport = transport.upper()
        self.rng = rng
        self._seq = 0

    # -- identity helpers ---------------------------------------------------
    @property
    def aor_uri(self) -> SipUri:
        return SipUri(self.user, self.domain)

    @property
    def contact_uri(self) -> SipUri:
        return SipUri(self.user, self.host, self.port,
                      {"transport": self.transport.lower()})

    def new_branch(self) -> str:
        return BRANCH_MAGIC + f"{self.rng.getrandbits(48):012x}"

    def new_tag(self) -> str:
        return f"{self.rng.getrandbits(32):08x}"

    def new_call_id(self) -> str:
        return f"{self.rng.getrandbits(48):012x}@{self.host}"

    def _via(self, branch: str) -> str:
        return Via(self.transport, self.host, self.port,
                   {"branch": branch}).render()

    # -- requests -----------------------------------------------------------
    def register(self) -> SipRequest:
        """A REGISTER binding this agent's contact to its AOR for an hour."""
        request = SipRequest("REGISTER", SipUri(None, self.domain))
        from_addr = Address(self.aor_uri, params={"tag": self.new_tag()})
        request.add("Via", self._via(self.new_branch()))
        request.add("Max-Forwards", "70")
        request.add("From", from_addr.render())
        request.add("To", Address(self.aor_uri).render())
        request.add("Call-ID", self.new_call_id())
        request.add("CSeq", CSeq(self._next_seq(), "REGISTER").render())
        request.add("Contact", Address(self.contact_uri).render())
        request.add("Expires", "3600")
        request.add("Content-Length", "0")
        return request

    def invite(self, callee_user: str) -> SipRequest:
        """An INVITE to ``callee_user`` in our domain, with an SDP offer."""
        callee_uri = SipUri(callee_user, self.domain)
        body = SDP_TEMPLATE.format(user=self.user, host=self.host)
        request = SipRequest("INVITE", callee_uri, body=body)
        request.add("Via", self._via(self.new_branch()))
        request.add("Max-Forwards", "70")
        request.add("From",
                    Address(self.aor_uri,
                            params={"tag": self.new_tag()}).render())
        request.add("To", Address(callee_uri).render())
        request.add("Call-ID", self.new_call_id())
        request.add("CSeq", CSeq(self._next_seq(), "INVITE").render())
        request.add("Contact", Address(self.contact_uri).render())
        request.add("Content-Type", "application/sdp")
        request.add("Content-Length", str(len(body)))
        return request

    def ack_for(self, invite: SipRequest, response: SipResponse) -> SipRequest:
        """The ACK acknowledging a 2xx to our INVITE (new branch, per RFC)."""
        contact = response.contact
        target = contact.uri if contact else invite.uri
        ack = SipRequest("ACK", target)
        ack.add("Via", self._via(self.new_branch()))
        ack.add("Max-Forwards", "70")
        ack.add("From", invite.get("From"))
        ack.add("To", response.get("To"))
        ack.add("Call-ID", invite.call_id)
        ack.add("CSeq", CSeq(invite.cseq.number, "ACK").render())
        ack.add("Content-Length", "0")
        return ack

    def bye(self, dialog: Dialog) -> SipRequest:
        """A BYE terminating an established dialog."""
        request = SipRequest("BYE", dialog.remote_target)
        request.add("Via", self._via(self.new_branch()))
        request.add("Max-Forwards", "70")
        request.add("From",
                    Address(SipUri(dialog.local_user, self.domain),
                            params={"tag": dialog.local_tag}).render())
        request.add("To",
                    Address(SipUri(dialog.remote_user, self.domain),
                            params={"tag": dialog.remote_tag}).render())
        request.add("Call-ID", dialog.call_id)
        request.add("CSeq", CSeq(dialog.next_cseq(), "BYE").render())
        request.add("Content-Length", "0")
        return request

    # -- responses ----------------------------------------------------------
    def response_for(self, request: SipRequest, status: int,
                     to_tag: Optional[str] = None,
                     with_contact: bool = False) -> SipResponse:
        """Build a response echoing the request's routing headers."""
        response = SipResponse(status)
        for value in request.get_all("Via"):
            response.add("Via", value)
        response.add("From", request.get("From"))
        to_value = request.get("To")
        if to_tag is not None and ";tag=" not in to_value:
            to_value = Address.parse(to_value).with_tag(to_tag).render()
        response.add("To", to_value)
        response.add("Call-ID", request.call_id)
        response.add("CSeq", request.get("CSeq"))
        if with_contact:
            response.add("Contact", Address(self.contact_uri).render())
        response.add("Content-Length", "0")
        return response

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def __repr__(self) -> str:
        return f"<MessageBuilder {self.user}@{self.domain} via {self.host}:{self.port}>"
