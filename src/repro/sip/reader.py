"""What a phone reads of a SIP text.

The proxy parses every message into the full model of
:mod:`repro.sip.message`, because that is what the paper measures.  A
phone acts on a handful of fields, so :class:`PhoneMessage` reads each
text once for only those: the start line, the Via lines, From, To,
Call-ID, CSeq and Contact, each as its value, and of a response also the
top Via's branch and the CSeq method its client transaction matches on.

Like a scenario-driven load generator, a phone reads by template: the
texts it receives are the ones the proxy renders, in one header order,
with canonical names and plainly written values, so one regular
expression per shape (a response; a forwarded request) reads a whole
text in one match, building no message object.  A text no template fits
— compact or lower-case names, another order, a missing header, a
folded line, padded or unusual values — is read through the message
model instead.  Either way the reader raises ``ValueError`` exactly where
:func:`~repro.sip.parser.parse_message`, or for a response the
``top_via``/``cseq`` accessors, would raise, and
:meth:`~PhoneMessage.to_tag` and :meth:`~PhoneMessage.contact_uri` raise
where the address accessors would.  ``tests/test_property_based.py``
holds the templates to the model on proxy-made texts and perturbations of
them.
"""

import re
from typing import Optional, Tuple

from repro.sip.headers import Address
from repro.sip.parser import parse_message

#: a header value as written here: no leading or trailing whitespace
_VALUE = r"(\S(?:.*\S)?)"
#: a response as the proxy relays or makes one: status line, Via lines
#: (the top one as a user agent writes it, its branch captured), From,
#: To, Call-ID, CSeq, an optional Contact, Content-Length, the
#: Retry-After a 503 adds after it, and no body
_RESPONSE = re.compile(
    r"SIP/2\.0 ([0-9]{3}) .*"
    r"\r\nVia: SIP/2\.0/[^/;\s]+ [^/;:\s]+(?::[0-9]+)?;branch=([^;\s]*)"
    r"(?:\r\nVia: \S(?:.*\S)?)*"
    rf"\r\nFrom: {_VALUE}\r\nTo: {_VALUE}\r\nCall-ID: {_VALUE}"
    r"\r\nCSeq: (([0-9]+) ([A-Z]+))"
    rf"(?:\r\nContact: {_VALUE})?"
    r"\r\nContent-Length: 0(?:\r\nRetry-After: [0-9]+)?\r\n\r\n")
#: a request as the proxy forwards one: request line (a plain sip: URI),
#: Via lines, Max-Forwards, From, To, Call-ID, CSeq, an optional Contact
#: and Content-Type, Content-Length; the body follows the match
_REQUEST = re.compile(
    r"([A-Z]+) sip:(?:[^@;:\s]+@)?[^@;:\s]+(?::[0-9]+)?(?:;\S*)? SIP/2\.0"
    r"((?:\r\nVia: \S(?:.*\S)?)*)"
    r"\r\nMax-Forwards: .*"
    rf"\r\nFrom: {_VALUE}\r\nTo: {_VALUE}\r\nCall-ID: {_VALUE}"
    rf"\r\nCSeq: {_VALUE}(?:\r\nContact: {_VALUE})?"
    r"(?:\r\nContent-Type: .*)?"
    r"\r\nContent-Length: ([0-9]+)\r\n\r\n")
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

    def __repr__(self) -> str:
        kind = self.method or self.status
        return f"<PhoneMessage {kind} call={self.call_id}>"
