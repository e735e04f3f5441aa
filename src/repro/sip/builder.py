"""Construction of well-formed SIP messages, as wire text.

A :class:`MessageBuilder` carries one user agent's identity (URI, contact,
Via parameters) and formats every message a phone sends straight to wire
text, with fresh branches, tags, and Call-IDs from a deterministic RNG
stream: REGISTER, INVITE, ACK and BYE, and the 180/200 answering an
INVITE and the 200 answering a BYE.  A response copies the request's
Via, From, To, Call-ID and CSeq values as read, adding a To tag if asked.
The stream may be shared: the benchmark phones all draw from one
(``"phone-ids"``).  Each value has a fixed width, so which draws a builder
gets changes no message length and no simulated number
(``tests/test_clients_manager.py::test_identifiers_never_reach_a_result``).

The object methods (:meth:`~MessageBuilder.register`,
:meth:`~MessageBuilder.invite`, :meth:`~MessageBuilder.response_for`)
parse the same text into the proxy's message model, for tests and
microbenchmarks that drive the proxy directly: there is one wire format.
"""

from typing import Optional, Tuple

from repro.sip.dialogs import Dialog
from repro.sip.message import REASON_PHRASES, SipRequest, SipResponse
from repro.sip.parser import parse_message
from repro.sip.reader import PhoneMessage, name_addr

BRANCH_MAGIC = "z9hG4bK"


def _sdp(user: str, host: str) -> str:
    """A representative SDP session description (sizes the INVITE like
    real traffic)."""
    return (f"v=0\r\no={user} 2890844526 2890844526 IN IP4 {host}\r\n"
            f"s=Session\r\nc=IN IP4 {host}\r\nt=0 0\r\n"
            "m=audio 49172 RTP/AVP 0\r\na=rtpmap:0 PCMU/8000\r\n")


def _copied(via_lines: str, from_, to, call_id, cseq,
            to_tag: Optional[str]) -> str:
    """The header lines a response copies from its request (RFC 3261
    §8.2.6.2), each after its CRLF, with ``to_tag`` added to a To that
    has none; raises ``ValueError`` where From, To, Call-ID or CSeq is
    missing, and for a To that cannot take the tag (it does not parse as
    an address)."""
    if from_ is None or to is None or call_id is None or cseq is None:
        raise ValueError("a response copies From, To, Call-ID and CSeq")
    if to_tag is not None and ";tag=" not in to:
        name_addr(to)
        to = f"{to};tag={to_tag}"
    return (f"{via_lines}\r\nFrom: {from_}\r\nTo: {to}"
            f"\r\nCall-ID: {call_id}\r\nCSeq: {cseq}")


class MessageBuilder:
    """Formats requests and responses for one user agent."""

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
    def new_branch(self) -> str:
        return BRANCH_MAGIC + f"{self.rng.getrandbits(48):012x}"

    def new_tag(self) -> str:
        return f"{self.rng.getrandbits(32):08x}"

    def new_call_id(self) -> str:
        return f"{self.rng.getrandbits(48):012x}@{self.host}"

    def _via(self, branch: str) -> str:
        return (f"Via: SIP/2.0/{self.transport} {self.host}:{self.port}"
                f";branch={branch}\r\n")

    def _contact(self) -> str:
        return (f"<sip:{self.user}@{self.host}:{self.port}"
                f";transport={self.transport.lower()}>")

    # -- requests -----------------------------------------------------------
    def register_text(self) -> Tuple[str, str, str]:
        """(text, branch, Call-ID) of a REGISTER binding this agent's
        contact to its AOR for an hour."""
        tag = self.new_tag()
        branch = self.new_branch()
        call_id = self.new_call_id()
        aor = f"<sip:{self.user}@{self.domain}>"
        text = (f"REGISTER sip:{self.domain} SIP/2.0\r\n"
                f"{self._via(branch)}"
                "Max-Forwards: 70\r\n"
                f"From: {aor};tag={tag}\r\n"
                f"To: {aor}\r\n"
                f"Call-ID: {call_id}\r\n"
                f"CSeq: {self._next_seq()} REGISTER\r\n"
                f"Contact: {self._contact()}\r\n"
                "Expires: 3600\r\n"
                "Content-Length: 0\r\n\r\n")
        return text, branch, call_id

    def invite_text(self, callee_user: str) -> Tuple[str, str, Dialog]:
        """(text, branch, the call's :class:`Dialog`) of an INVITE to
        ``callee_user`` in our domain, with an SDP offer."""
        branch = self.new_branch()
        tag = self.new_tag()
        dialog = Dialog(self.new_call_id(),
                        f"<sip:{self.user}@{self.domain}>;tag={tag}",
                        f"sip:{callee_user}@{self.domain}", self._next_seq())
        body = _sdp(self.user, self.host)
        text = (f"INVITE {dialog.target} SIP/2.0\r\n"
                f"{self._via(branch)}"
                "Max-Forwards: 70\r\n"
                f"From: {dialog.local}\r\n"
                f"To: <{dialog.target}>\r\n"
                f"Call-ID: {dialog.call_id}\r\n"
                f"CSeq: {dialog.cseq} INVITE\r\n"
                f"Contact: {self._contact()}\r\n"
                "Content-Type: application/sdp\r\n"
                f"Content-Length: {len(body)}\r\n\r\n{body}")
        return text, branch, dialog

    def ack_text(self, dialog: Dialog) -> str:
        """The ACK acknowledging the 2xx that confirmed ``dialog`` (new
        branch, per RFC 3261 §17.1.1.3)."""
        return (f"ACK {dialog.target} SIP/2.0\r\n"
                f"{self._via(self.new_branch())}"
                "Max-Forwards: 70\r\n"
                f"From: {dialog.local}\r\n"
                f"To: {dialog.remote}\r\n"
                f"Call-ID: {dialog.call_id}\r\n"
                f"CSeq: {dialog.cseq} ACK\r\n"
                "Content-Length: 0\r\n\r\n")

    def bye_text(self, dialog: Dialog) -> Tuple[str, str]:
        """(text, branch) of a BYE terminating a confirmed dialog."""
        branch = self.new_branch()
        text = (f"BYE {dialog.target} SIP/2.0\r\n"
                f"{self._via(branch)}"
                "Max-Forwards: 70\r\n"
                f"From: {dialog.local}\r\n"
                f"To: {dialog.remote}\r\n"
                f"Call-ID: {dialog.call_id}\r\n"
                f"CSeq: {dialog.cseq + 1} BYE\r\n"
                "Content-Length: 0\r\n\r\n")
        return text, branch

    # -- responses ----------------------------------------------------------
    def _response(self, status: int, copied: str,
                  with_contact: bool = False) -> str:
        contact = f"\r\nContact: {self._contact()}" if with_contact else ""
        return (f"SIP/2.0 {status} {REASON_PHRASES.get(status, 'Unknown')}"
                f"{copied}{contact}\r\nContent-Length: 0\r\n\r\n")

    def answer_texts(self, invite: PhoneMessage,
                     tag: str) -> Tuple[str, str]:
        """(180 Ringing, 200 OK with our Contact) answering ``invite``
        with To tag ``tag``; raises ``ValueError`` where the INVITE lacks
        a header it copies or its To cannot take the tag."""
        copied = _copied(invite.via_lines, invite.from_, invite.to,
                         invite.call_id, invite.cseq, tag)
        return self._response(180, copied), self._response(200, copied, True)

    def ok_text(self, request: PhoneMessage) -> str:
        """The 200 OK answering a BYE; raises ``ValueError`` where the BYE
        lacks a header it copies."""
        return self._response(200, _copied(
            request.via_lines, request.from_, request.to, request.call_id,
            request.cseq, None))

    # -- the same texts as message objects ----------------------------------
    def register(self) -> SipRequest:
        return parse_message(self.register_text()[0])

    def invite(self, callee_user: str) -> SipRequest:
        return parse_message(self.invite_text(callee_user)[0])

    def response_for(self, request: SipRequest, status: int,
                     to_tag: Optional[str] = None) -> SipResponse:
        """A response echoing ``request``'s routing headers; raises
        ``ValueError`` where the request lacks one."""
        via_lines = "".join([f"\r\nVia: {via}"
                             for via in request.get_all("Via")])
        return parse_message(self._response(status, _copied(
            via_lines, request.get("From"), request.get("To"),
            request.call_id, request.get("CSeq"), to_tag)))

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq
