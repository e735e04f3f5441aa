"""Structured header values: Via, CSeq, and name-addr headers."""

import sys
from typing import Dict, Optional

from repro.sip.uri import SipUri


class Via:
    """A Via header value: ``SIP/2.0/UDP host:port;branch=z9hG4bK...``."""

    __slots__ = ("transport", "host", "port", "params")

    def __init__(self, transport: str, host: str, port: int,
                 params: Optional[Dict[str, str]] = None) -> None:
        self.transport = transport.upper()
        self.host = host
        self.port = port
        self.params = params or {}

    @classmethod
    def parse(cls, text: str) -> "Via":
        text = text.strip()
        parts = text.split(";")
        head = parts[0].strip()
        params: Dict[str, str] = {}
        for piece in parts[1:]:
            piece = piece.strip()
            if not piece:
                continue
            if "=" in piece:
                key, value = piece.split("=", 1)
                params[key] = value
            else:
                params[piece] = ""
        try:
            proto, sent_by = head.rsplit(" ", 1)
        except ValueError:
            raise ValueError(f"bad Via: {text!r}") from None
        proto_parts = proto.split("/")
        if len(proto_parts) != 3 or proto_parts[0] != "SIP":
            raise ValueError(f"bad Via protocol: {text!r}")
        transport = proto_parts[2]
        if ":" in sent_by:
            host, port_text = sent_by.split(":", 1)
            port = int(port_text)
        else:
            host, port = sent_by, 5060
        return cls(transport, host, port, params)

    @property
    def branch(self) -> Optional[str]:
        return self.params.get("branch")

    def render(self) -> str:
        out = f"SIP/2.0/{self.transport} {self.host}:{self.port}"
        for key, value in self.params.items():
            out += f";{key}={value}" if value else f";{key}"
        return out


class CSeq:
    """A CSeq header value: ``<sequence> <METHOD>``."""

    __slots__ = ("number", "method")

    def __init__(self, number: int, method: str) -> None:
        self.number = number
        self.method = sys.intern(method.upper())

    @classmethod
    def parse(cls, text: str) -> "CSeq":
        parts = text.split()
        if len(parts) != 2:
            raise ValueError(f"bad CSeq: {text!r}")
        try:
            number = int(parts[0])
        except ValueError:
            raise ValueError(f"bad CSeq number: {text!r}") from None
        return cls(number, parts[1])

    def render(self) -> str:
        return f"{self.number} {self.method}"

    def __eq__(self, other) -> bool:
        if not isinstance(other, CSeq):
            return NotImplemented
        return (self.number, self.method) == (other.number, other.method)

    def __hash__(self) -> int:
        return hash((self.number, self.method))


class Address:
    """A name-addr header value (From/To/Contact):
    ``"Display" <sip:user@host>;tag=...``."""

    __slots__ = ("display", "uri", "params")

    def __init__(self, uri: SipUri, display: Optional[str] = None,
                 params: Optional[Dict[str, str]] = None) -> None:
        self.uri = uri
        self.display = display
        self.params = params or {}

    @classmethod
    def parse(cls, text: str) -> "Address":
        text = text.strip()
        display: Optional[str] = None
        params: Dict[str, str] = {}
        if "<" in text:
            pre, rest = text.split("<", 1)
            pre = pre.strip()
            if pre:
                display = pre.strip('"')
            if ">" not in rest:
                raise ValueError(f"unterminated name-addr: {text!r}")
            uri_text, after = rest.split(">", 1)
            for piece in after.split(";"):
                piece = piece.strip()
                if not piece:
                    continue
                if "=" in piece:
                    key, value = piece.split("=", 1)
                    params[key] = value
                else:
                    params[piece] = ""
        else:
            # addr-spec form: params belong to the header, not the URI
            if ";" in text:
                uri_text, param_text = text.split(";", 1)
                for piece in param_text.split(";"):
                    if not piece:
                        continue
                    if "=" in piece:
                        key, value = piece.split("=", 1)
                        params[key] = value
                    else:
                        params[piece] = ""
            else:
                uri_text = text
        uri = SipUri.parse(uri_text.strip())
        return cls(uri, display, params)

    @property
    def tag(self) -> Optional[str]:
        return self.params.get("tag")

    def render(self) -> str:
        out = ""
        if self.display:
            out += f'"{self.display}" '
        out += f"<{self.uri.render()}>"
        for key, value in self.params.items():
            out += f";{key}={value}" if value else f";{key}"
        return out
