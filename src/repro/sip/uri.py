"""``sip:`` URI parsing and rendering."""

from typing import Dict, Optional


class SipUri:
    """A SIP uniform resource identifier: ``sip:user@host:port;params``."""

    __slots__ = ("user", "host", "port", "params")

    def __init__(self, user: Optional[str], host: str,
                 port: Optional[int] = None,
                 params: Optional[Dict[str, str]] = None) -> None:
        self.user = user
        self.host = host
        self.port = port
        self.params = params or {}

    @classmethod
    def parse(cls, text: str) -> "SipUri":
        """Parse a URI; raises ValueError on malformed input."""
        text = text.strip()
        if not text.startswith("sip:"):
            raise ValueError(f"not a sip: URI: {text!r}")
        rest = text[4:]
        params: Dict[str, str] = {}
        if ";" in rest:
            rest, param_text = rest.split(";", 1)
            for piece in param_text.split(";"):
                if not piece:
                    continue
                if "=" in piece:
                    key, value = piece.split("=", 1)
                    params[key] = value
                else:
                    params[piece] = ""
        user: Optional[str] = None
        if "@" in rest:
            user, rest = rest.split("@", 1)
            if not user:
                raise ValueError(f"empty user part: {text!r}")
        port: Optional[int] = None
        if ":" in rest:
            rest, port_text = rest.split(":", 1)
            try:
                port = int(port_text)
            except ValueError:
                raise ValueError(f"bad port in URI: {text!r}") from None
        if not rest:
            raise ValueError(f"empty host: {text!r}")
        return cls(user, rest, port, params)

    @property
    def aor(self) -> str:
        """The address-of-record key used by the location service."""
        if self.user is None:
            return self.host
        return f"{self.user}@{self.host}"

    def render(self) -> str:
        out = "sip:"
        if self.user is not None:
            out += f"{self.user}@"
        out += self.host
        if self.port is not None:
            out += f":{self.port}"
        for key, value in self.params.items():
            out += f";{key}={value}" if value else f";{key}"
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, SipUri):
            return NotImplemented
        return (self.user, self.host, self.port, self.params) == \
            (other.user, other.host, other.port, other.params)

    def __hash__(self) -> int:
        return hash((self.user, self.host, self.port))
