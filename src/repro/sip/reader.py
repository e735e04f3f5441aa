"""What a phone, and the proxy, read of a SIP text.

Both sides read by template.  The texts a phone receives are the ones
the proxy renders, and the texts the proxy receives are the ones the
phones write (:mod:`repro.sip.builder`): one header order, canonical
names, plainly written values.  So one regular expression per shape reads
a whole text in one match and builds no message object.

A phone acts on a handful of fields, so :class:`PhoneMessage` reads each
text once for only those: the start line, the Via lines, From, To,
Call-ID, CSeq and Contact, each as its value, and of a response also the
top Via's branch and the CSeq method its client transaction matches on.
A text no template fits — compact or lower-case names, another order, a
missing header, a folded line, padded or unusual values — is read through
the message model instead.  Either way the reader raises ``ValueError``
exactly where :func:`~repro.sip.parser.parse_message`, or for a response
the ``top_via``/``cseq`` accessors, would raise, and
:meth:`~PhoneMessage.to_tag` and :meth:`~PhoneMessage.contact_uri` raise
where the address accessors would.

:func:`proxy_read` reads what the proxy routes on into a
:class:`ProxyRequest` or :class:`ProxyResponse`, and the proxy forwards
the received text itself, spliced.  Its templates admit only texts the
message model renders back byte for byte and whose routed-on fields the
model's accessors read without raising, so splicing and reading give what
parsing and rendering give.  For any other text it returns None and the
proxy parses the text into the model, which rejects what it rejects.
``tests/test_property_based.py`` holds both readers to the model on the
texts each side receives and on perturbations of them.
"""

import re
from sys import intern
from typing import Optional, Tuple

from repro.sip.headers import Address
from repro.sip.message import REASON_PHRASES
from repro.sip.parser import parse_message

#: a header value as written here: no leading or trailing whitespace
_WRITTEN = r"\S.*(?<=\S)"
_VALUE = rf"({_WRITTEN})"
#: a response as the proxy relays or makes one: status line, Via lines
#: (the top one as a user agent writes it, its branch captured), From,
#: To, Call-ID, CSeq, an optional Contact, Content-Length, the
#: Retry-After a 503 adds after it, and no body
_RESPONSE = re.compile(
    r"SIP/2\.0 ([0-9]{3}) .*"
    r"\r\nVia: SIP/2\.0/[^/;\s]+ [^/;:\s]+(?::[0-9]+)?;branch=([^;\s]*)"
    rf"(?:\r\nVia: {_WRITTEN})*"
    rf"\r\nFrom: {_VALUE}\r\nTo: {_VALUE}\r\nCall-ID: {_VALUE}"
    r"\r\nCSeq: (([0-9]+) ([A-Z]+))"
    rf"(?:\r\nContact: {_VALUE})?"
    r"\r\nContent-Length: 0(?:\r\nRetry-After: [0-9]+)?\r\n\r\n")
#: a request as the proxy forwards one: request line (a plain sip: URI),
#: Via lines, Max-Forwards, From, To, Call-ID, CSeq, an optional Contact
#: and Content-Type, Content-Length; the body follows the match
_REQUEST = re.compile(
    r"([A-Z]+) sip:(?:[^@;:\s]+@)?[^@;:\s]+(?::[0-9]+)?(?:;\S*)? SIP/2\.0"
    rf"((?:\r\nVia: {_WRITTEN})*)"
    r"\r\nMax-Forwards: .*"
    rf"\r\nFrom: {_VALUE}\r\nTo: {_VALUE}\r\nCall-ID: {_VALUE}"
    rf"\r\nCSeq: {_VALUE}(?:\r\nContact: {_VALUE})?"
    r"(?:\r\nContent-Type: .*)?"
    r"\r\nContent-Length: ([0-9]+)\r\n\r\n")
#: a token as the phones write users, hosts, branches, tags and params
_TOKEN = r"[0-9A-Za-z._-]+"
#: a request as a phone writes one: request line (a sip: URI that renders
#: as written, with at most a transport param), Via lines (the top one as
#: a user agent writes it, its branch captured), Max-Forwards, From, To,
#: Call-ID, CSeq, an optional Contact, Expires and Content-Type, and
#: Content-Length; the body follows the match.  Digit runs are bounded
#: so that ``int`` reads them as the model does.
_PROXY_REQUEST = re.compile(
    rf"(REGISTER|INVITE|ACK|BYE) sip:(?:({_TOKEN})@)?({_TOKEN})"
    rf"(?::(0|[1-9][0-9]{{0,8}}))?(?:;transport=({_TOKEN}))? SIP/2\.0"
    rf"(\r\nVia: SIP/2\.0/[A-Z]+ {_TOKEN}:[0-9]{{1,9}};branch=({_TOKEN})"
    rf"(?:\r\nVia: {_WRITTEN})*)"
    r"(\r\nMax-Forwards: ([0-9]{1,9}))"
    rf"(\r\nFrom: {_WRITTEN}\r\nTo: {_VALUE}\r\nCall-ID: {_VALUE}"
    r"\r\nCSeq: [0-9]{1,9} ([A-Z]+))"
    rf"(?:\r\nContact: {_VALUE})?"
    rf"(?:\r\nExpires: {_WRITTEN})?(?:\r\nContent-Type: {_WRITTEN})?"
    r"\r\nContent-Length: (0|[1-9][0-9]{0,8})\r\n\r\n")
#: a REGISTER's To, a name-addr whose URI parses (user, host captured)
_TO_AOR = re.compile(
    rf"<sip:(?:({_TOKEN})@)?({_TOKEN})(?::[0-9]{{1,9}})?>(?:;tag={_TOKEN})?")
#: a REGISTER's Contact, a name-addr whose URI parses (host, port and
#: transport param captured)
_CONTACT = re.compile(
    rf"<sip:{_TOKEN}@({_TOKEN})(?::([0-9]{{1,9}}))?"
    rf"(?:;transport=({_TOKEN}))?>")
#: a response as a callee writes one: status line, Via lines (the top one
#: the proxy's, its host and branch captured, and the next one's value),
#: From, To, Call-ID, CSeq, an optional Contact, Content-Length, an
#: optional Retry-After, and no body
_PROXY_RESPONSE = re.compile(
    r"SIP/2\.0 ([1-6][0-9]{2}) .*"
    rf"(\r\nVia: SIP/2\.0/[A-Z]+ ({_TOKEN}):[0-9]{{1,9}};branch=({_TOKEN}))"
    rf"(?:\r\nVia: {_VALUE}(?:\r\nVia: {_WRITTEN})*)?"
    rf"\r\nFrom: {_WRITTEN}\r\nTo: {_WRITTEN}\r\nCall-ID: {_VALUE}"
    rf"\r\nCSeq: {_WRITTEN}(?:\r\nContact: {_WRITTEN})?"
    rf"\r\nContent-Length: 0(?:\r\nRetry-After: {_WRITTEN})?\r\n\r\n")
#: a name-addr as this repo writes one, ``<sip:user@host[:port][;k=v]>``
#: and an optional tag, whose URI renders as written
_NAME_ADDR = re.compile(
    r"<(sip:[^<>@;:\s]+@[^<>@;:\s]+(?::(?:0|[1-9][0-9]*))?"
    r"(?:;[^<>;=\s]+=[^<>;=\s]+)?)>(?:;tag=([^;\s]*))?")


def name_addr(value: Optional[str]) -> Tuple[str, Optional[str]]:
    """(URI as rendered, tag) of a name-addr value; raises ``ValueError``
    where :meth:`Address.parse` would, and for a header that is not
    there."""
    if value is None:
        raise ValueError("no such header")
    match = _NAME_ADDR.fullmatch(value)
    if match is not None:
        return match[1], match[2]
    address = Address.parse(value)
    return address.uri.render(), address.tag


class PhoneMessage:
    """The fields of one SIP text a phone acts on.

    ``status`` is the response code, 0 for a request; ``method`` the
    request method (upper case), None for a response.  A response also
    has ``branch``, its top Via's (None without one), and
    ``cseq_method`` (None without a CSeq), which its client transaction
    matches on; a request has ``via_lines``, its Via header lines as a
    response repeats them (each ``"\\r\\nVia: " + value``).  ``from_``,
    ``to``, ``call_id``, ``cseq`` and ``contact`` are the first value of
    their header, or None.  Values are stripped, as the parser stores
    them.
    """

    __slots__ = ("status", "method", "branch", "cseq_method", "via_lines",
                 "from_", "to", "call_id", "cseq", "contact")

    def __init__(self, text: str) -> None:
        match = _RESPONSE.fullmatch(text)
        if match is not None:
            (status, self.branch, self.from_, self.to, self.call_id,
             self.cseq, __, self.cseq_method, self.contact) = match.groups()
            self.status = int(status)
            self.method = self.via_lines = None
            if 100 <= self.status <= 699:
                return
        else:
            match = _REQUEST.match(text)
            if match is not None:
                (self.method, self.via_lines, self.from_, self.to,
                 self.call_id, self.cseq, self.contact,
                 length) = match.groups()
                self.status = 0
                self.branch = self.cseq_method = None
                if int(length) == len(text) - match.end():
                    return
        self._read_model(text)

    def _read_model(self, text: str) -> None:
        """Read a text no template fits through the message model."""
        message = parse_message(text)
        self.from_ = message.get("From")
        self.to = message.get("To")
        self.call_id = message.call_id
        self.cseq = message.get("CSeq")
        self.contact = message.get("Contact")
        if message.is_request:
            self.status, self.method = 0, message.method
            self.branch = self.cseq_method = None
            self.via_lines = "".join([f"\r\nVia: {via}"
                                      for via in message.get_all("Via")])
            return
        via, cseq = message.top_via, message.cseq
        self.status, self.method, self.via_lines = message.status, None, None
        self.branch = via.branch if via is not None else None
        self.cseq_method = cseq.method if cseq is not None else None

    def to_tag(self) -> Optional[str]:
        """The To header's tag; raises ``ValueError`` where
        :meth:`Address.parse` would, and without a To: no call can be
        answered or confirmed without one."""
        return name_addr(self.to)[1]

    def contact_uri(self) -> Optional[str]:
        """The Contact's URI as the message model renders it, or None
        without a Contact; raises ``ValueError`` where
        :meth:`Address.parse` would."""
        if self.contact is None:
            return None
        return name_addr(self.contact)[0]


def proxy_read(text: str):
    """A :class:`ProxyRequest` or :class:`ProxyResponse` of ``text`` when
    a template fits it, else None: the message model must read it."""
    if text.startswith("SIP/2.0 "):
        match = _PROXY_RESPONSE.fullmatch(text)
        return ProxyResponse(text, match) if match is not None else None
    match = _PROXY_REQUEST.match(text)
    if match is None or int(match[15]) != len(text) - match.end():
        return None
    registration = None
    if match[1] == "REGISTER":
        # what the registrar reads must parse, and a REGISTER without a
        # Contact is the model's to answer
        to = _TO_AOR.fullmatch(match[11])
        contact = _CONTACT.fullmatch(match[14]) if match[14] else None
        if to is None or contact is None:
            return None
        user, host = to.groups()
        registration = (f"{user}@{host}" if user is not None else host,
                        contact[1], _port(contact[2]), contact[3])
    return ProxyRequest(text, match, registration)


def _port(digits: Optional[str]) -> Optional[int]:
    return int(digits) if digits is not None else None


class ProxyRequest:
    """What the proxy routes a phone-made request on, read by template.

    ``method``, ``call_id``, ``max_forwards`` and ``transaction_key()``
    are what the message model's accessors give; ``next_hop()`` and, of
    a REGISTER, ``registration`` are the request-URI's and the To's and
    Contact's fields as :class:`~repro.sip.uri.SipUri` parses them.
    ``reply()`` and ``forward()`` write what the model would render.
    """

    __slots__ = ("method", "call_id", "registration", "_text", "_match")
    is_request = True

    def __init__(self, text: str, match: "re.Match",
                 registration: Optional[Tuple]) -> None:
        # one string per method, as the model's, in every key and
        # transaction that keeps one
        self.method = intern(match[1])
        self.call_id = match[12]
        #: (the To's address-of-record, the Contact's host, port or None,
        #: transport param or None) of a REGISTER, else None
        self.registration = registration
        self._text = text
        self._match = match

    @property
    def max_forwards(self) -> int:
        return int(self._match[9])

    def transaction_key(self) -> Tuple[str, str]:
        """Top Via branch and CSeq method, an ACK's matching its INVITE's."""
        method = self._match[13]
        return (self._match[7],
                "INVITE" if method == "ACK" else intern(method))

    def next_hop(self) -> Tuple[str, str, Optional[int], Optional[str]]:
        """The request-URI's (host, address-of-record, port or None,
        transport param or None)."""
        user, host, port, transport = self._match.group(2, 3, 4, 5)
        return (host, f"{user}@{host}" if user is not None else host,
                _port(port), transport)

    def reply(self, status: int, extra: str = "") -> str:
        """The response with ``status`` that repeats this request's Via,
        From, To, Call-ID and CSeq lines, with header lines ``extra``
        (each ending in CRLF) after its Content-Length."""
        return (f"SIP/2.0 {status} {REASON_PHRASES[status]}"
                f"{self._match[6]}{self._match[10]}"
                f"\r\nContent-Length: 0\r\n{extra}\r\n")

    def forward(self, via: str, max_forwards: int) -> str:
        """This text with a Via line of value ``via`` on top and
        Max-Forwards ``max_forwards``."""
        match, text = self._match, self._text
        return (f"{text[:match.start(6)]}\r\nVia: {via}{match[6]}"
                f"\r\nMax-Forwards: {max_forwards}{text[match.end(8):]}")


class ProxyResponse:
    """What the proxy relays a callee's response on, read by template.

    ``status``, ``is_final`` and ``call_id`` are what the message model
    gives; ``top_host`` and ``branch`` the top Via's; ``relayed`` is the
    text with its top Via line cut, and ``next_via`` the value of the Via
    line that is then on top, or None without one.
    """

    __slots__ = ("status", "is_final", "call_id", "top_host", "branch",
                 "next_via", "relayed")
    is_request = False

    def __init__(self, text: str, match: "re.Match") -> None:
        (status, __, self.top_host, self.branch, self.next_via,
         self.call_id) = match.groups()
        self.status = int(status)
        self.is_final = self.status >= 200
        self.relayed = text[:match.start(2)] + text[match.end(2):]
