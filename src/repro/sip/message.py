"""SIP message model: requests and responses with ordered headers."""

import sys
from typing import List, Optional, Tuple

from repro.sip.headers import Address, CSeq, Via
from repro.sip.uri import SipUri

SIP_VERSION = "SIP/2.0"

#: compact form → canonical header name (RFC 3261 §7.3.3)
COMPACT_FORMS = {
    "v": "Via",
    "f": "From",
    "t": "To",
    "i": "Call-ID",
    "m": "Contact",
    "l": "Content-Length",
    "c": "Content-Type",
    "k": "Supported",
    "s": "Subject",
    "e": "Content-Encoding",
}

REASON_PHRASES = {
    100: "Trying",
    180: "Ringing",
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    408: "Request Timeout",
    480: "Temporarily Unavailable",
    481: "Call/Transaction Does Not Exist",
    482: "Loop Detected",
    483: "Too Many Hops",
    486: "Busy Here",
    500: "Server Internal Error",
    503: "Service Unavailable",
}


class SipMessage:
    """Common behaviour of requests and responses."""

    __slots__ = ("headers", "body")

    def __init__(self, headers: Optional[List[Tuple[str, str]]] = None,
                 body: str = "") -> None:
        #: ordered (name, value) pairs, names in canonical capitalization
        self.headers: List[Tuple[str, str]] = list(headers or [])
        self.body = body

    # -- generic header access -------------------------------------------
    def get(self, name: str) -> Optional[str]:
        """First value of header ``name`` (case-insensitive), or None."""
        lname = name.lower()
        for hname, value in self.headers:
            if hname.lower() == lname:
                return value
        return None

    def get_all(self, name: str) -> List[str]:
        lname = name.lower()
        return [value for hname, value in self.headers
                if hname.lower() == lname]

    def add(self, name: str, value: str) -> None:
        self.headers.append((name, value))

    def add_first(self, name: str, value: str) -> None:
        self.headers.insert(0, (name, value))

    def set(self, name: str, value: str) -> None:
        """Replace the first occurrence (or append)."""
        lname = name.lower()
        for i, (hname, __) in enumerate(self.headers):
            if hname.lower() == lname:
                self.headers[i] = (hname, value)
                return
        self.add(name, value)

    def remove_first(self, name: str) -> Optional[str]:
        lname = name.lower()
        for i, (hname, value) in enumerate(self.headers):
            if hname.lower() == lname:
                del self.headers[i]
                return value
        return None

    # -- structured accessors ----------------------------------------------
    @property
    def top_via(self) -> Optional[Via]:
        value = self.get("Via")
        return Via.parse(value) if value is not None else None

    @property
    def call_id(self) -> Optional[str]:
        return self.get("Call-ID")

    @property
    def cseq(self) -> Optional[CSeq]:
        value = self.get("CSeq")
        return CSeq.parse(value) if value is not None else None

    @property
    def to_addr(self) -> Optional[Address]:
        value = self.get("To")
        return Address.parse(value) if value is not None else None

    @property
    def contact(self) -> Optional[Address]:
        value = self.get("Contact")
        return Address.parse(value) if value is not None else None

    @property
    def max_forwards(self) -> Optional[int]:
        value = self.get("Max-Forwards")
        return int(value) if value is not None else None

    def transaction_key(self) -> Tuple:
        """RFC 3261 §17.2.3-style matching key: top Via branch + CSeq
        method (so ACK matches its INVITE's transaction)."""
        via = self.top_via
        branch = via.branch if via is not None else None
        cseq = self.cseq
        method = cseq.method if cseq is not None else None
        if method == "ACK":
            method = "INVITE"
        return (branch, method)

    # -- serialization -------------------------------------------------------
    def start_line(self) -> str:
        raise NotImplementedError

    def render(self) -> str:
        """Serialize to wire text (CRLF line endings)."""
        lines = [self.start_line()]
        wrote_content_length = False
        for name, value in self.headers:
            if name.lower() == "content-length":
                wrote_content_length = True
                value = str(len(self.body))
            lines.append(f"{name}: {value}")
        if not wrote_content_length:
            lines.append(f"Content-Length: {len(self.body)}")
        return "\r\n".join(lines) + "\r\n\r\n" + self.body


class SipRequest(SipMessage):
    """A SIP request: ``METHOD sip:uri SIP/2.0``."""

    __slots__ = ("method", "uri")

    def __init__(self, method: str, uri: SipUri,
                 headers: Optional[List[Tuple[str, str]]] = None,
                 body: str = "") -> None:
        super().__init__(headers, body)
        self.method = sys.intern(method.upper())
        self.uri = uri

    @property
    def is_request(self) -> bool:
        return True

    def start_line(self) -> str:
        return f"{self.method} {self.uri.render()} {SIP_VERSION}"


class SipResponse(SipMessage):
    """A SIP response: ``SIP/2.0 200 OK``."""

    __slots__ = ("status", "reason")

    def __init__(self, status: int, reason: Optional[str] = None,
                 headers: Optional[List[Tuple[str, str]]] = None,
                 body: str = "") -> None:
        super().__init__(headers, body)
        self.status = status
        self.reason = reason if reason is not None else \
            REASON_PHRASES.get(status, "Unknown")

    @property
    def is_request(self) -> bool:
        return False

    @property
    def is_final(self) -> bool:
        return self.status >= 200

    def start_line(self) -> str:
        return f"{SIP_VERSION} {self.status} {self.reason}"
