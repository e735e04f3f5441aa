"""SIP wire-format parsing and TCP stream framing.

``parse_message`` handles one complete message (as UDP delivers it).
``StreamFramer`` does what a TCP receiver must do itself (§3.1): find the
header/body boundary, read ``Content-Length``, and cut complete messages
out of an unbounded byte stream — the reason only one OpenSER worker may
read a given connection.
"""

from typing import List, Optional, Tuple, Union

from repro.sip.message import (
    COMPACT_FORMS,
    SIP_VERSION,
    SipMessage,
    SipRequest,
    SipResponse,
)
from repro.sip.uri import SipUri

MAX_MESSAGE_BYTES = 65536


class SipParseError(ValueError):
    """Malformed SIP on the wire."""


#: headers whose canonical capitalization is irregular (RFC 3261 §20)
_IRREGULAR_NAMES = {
    "call-id": "Call-ID",
    "cseq": "CSeq",
    "www-authenticate": "WWW-Authenticate",
    "mime-version": "MIME-Version",
    "sip-etag": "SIP-ETag",
    "sip-if-match": "SIP-If-Match",
}


#: wire spelling -> canonical name for the spellings this repo emits and
#: the compact forms; every other spelling takes ``_canonical``
_KNOWN_NAMES = {name: name for name in (
    "Via", "From", "To", "Call-ID", "CSeq", "Max-Forwards", "Contact",
    "Content-Length", "Content-Type", "Expires", "Retry-After")}
_KNOWN_NAMES.update(COMPACT_FORMS)
_KNOWN_NAMES.update((c.upper(), name) for c, name in COMPACT_FORMS.items())


def _canonical(name: str) -> str:
    name = name.strip()
    lower = name.lower()
    if lower in COMPACT_FORMS:
        return COMPACT_FORMS[lower]
    if lower in _IRREGULAR_NAMES:
        return _IRREGULAR_NAMES[lower]
    return "-".join(part.capitalize() if part.islower() or part.isupper()
                    else part
                    for part in name.split("-"))


def _parse_headers(lines: List[str]) -> List[Tuple[str, str]]:
    headers: List[Tuple[str, str]] = []
    for line in lines:
        if not line:
            continue
        if line[0] in " \t":
            # folded continuation line (deprecated but legal)
            if not headers:
                raise SipParseError(f"continuation without header: {line!r}")
            name, value = headers[-1]
            headers[-1] = (name, value + " " + line.strip())
            continue
        name, colon, value = line.partition(":")
        if not colon:
            raise SipParseError(f"malformed header line: {line!r}")
        canonical = _KNOWN_NAMES.get(name)
        if canonical is None:
            if not name.strip():
                raise SipParseError(f"empty header name: {line!r}")
            canonical = _canonical(name)
        headers.append((canonical, value.strip()))
    return headers


def parse_message(text: str) -> Union[SipRequest, SipResponse]:
    """Parse one complete SIP message from wire text."""
    if not text:
        raise SipParseError("empty message")
    if "\r\n\r\n" in text:
        head, body = text.split("\r\n\r\n", 1)
    else:
        head, body = text.rstrip("\r\n"), ""
    lines = head.split("\r\n")
    start = lines[0]
    headers = _parse_headers(lines[1:])
    message: Union[SipRequest, SipResponse]
    if start.startswith(SIP_VERSION + " "):
        parts = start.split(" ", 2)
        if len(parts) < 3:
            raise SipParseError(f"malformed status line: {start!r}")
        try:
            status = int(parts[1])
        except ValueError:
            raise SipParseError(f"bad status code: {start!r}") from None
        if not 100 <= status <= 699:
            raise SipParseError(f"status code out of range: {status}")
        message = SipResponse(status, parts[2], headers, body)
    else:
        parts = start.split(" ")
        if len(parts) != 3 or parts[2] != SIP_VERSION:
            raise SipParseError(f"malformed request line: {start!r}")
        try:
            uri = SipUri.parse(parts[1])
        except ValueError as exc:
            raise SipParseError(str(exc)) from None
        message = SipRequest(parts[0], uri, headers, body)
    declared = message.get("Content-Length")
    if declared is not None:
        try:
            declared_len = int(declared)
        except ValueError:
            raise SipParseError(f"bad Content-Length: {declared!r}") from None
        if declared_len != len(body):
            raise SipParseError(
                f"Content-Length {declared_len} != body {len(body)}")
    return message


class StreamFramer:
    """Incremental framer for SIP over a bytestream.

    Feed it raw chunks; it returns the complete message texts found so
    far.  State persists across feeds, exactly as a worker's per-connection
    read buffer does.
    """

    __slots__ = ("_buffer", "max_message_bytes", "messages_framed")

    def __init__(self, max_message_bytes: int = MAX_MESSAGE_BYTES) -> None:
        self._buffer = ""
        self.max_message_bytes = max_message_bytes
        self.messages_framed = 0

    def feed(self, data: str) -> List[str]:
        """Append ``data`` and extract every complete message."""
        self._buffer += data
        out: List[str] = []
        while True:
            message = self._try_extract()
            if message is None:
                break
            out.append(message)
            self.messages_framed += 1
        if len(self._buffer) > self.max_message_bytes:
            raise SipParseError(
                f"oversized message: {len(self._buffer)} buffered bytes "
                "without a complete frame")
        return out

    def _try_extract(self) -> Optional[str]:
        boundary = self._buffer.find("\r\n\r\n")
        if boundary < 0:
            return None
        head = self._buffer[:boundary]
        body_start = boundary + 4
        content_length = 0
        for line in head.split("\r\n")[1:]:
            name, __, value = line.partition(":")
            if name.strip().lower() in ("content-length", "l"):
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise SipParseError(
                        f"bad Content-Length while framing: {value!r}"
                    ) from None
                if content_length < 0:
                    # would frame an empty message forever (or cut the
                    # stream into garbage)
                    raise SipParseError(
                        f"negative Content-Length while framing: {value!r}")
                break
        end = body_start + content_length
        if len(self._buffer) < end:
            return None
        message = self._buffer[:end]
        self._buffer = self._buffer[end:]
        return message
