"""Send actions produced by the proxy core.

The core is transport-independent: it decides *what* to send *where* in
SIP terms, and the architecture modules (UDP/TCP/SCTP/threaded servers)
translate targets into sockets, connections and descriptors.
"""

from repro.sip.location import Binding


class Target:
    """Where a message should go."""

    __slots__ = ()


class ToSource(Target):
    """Back to wherever the triggering message arrived from."""

    __slots__ = ("source",)

    def __init__(self, source) -> None:
        self.source = source


class ToBinding(Target):
    """To a registered contact (request forwarding)."""

    __slots__ = ("binding",)

    def __init__(self, binding: Binding) -> None:
        self.binding = binding


class ToVia(Target):
    """To a Via header's sent-by address (stateless response forwarding,
    RFC 3261 §16.11)."""

    __slots__ = ("addr", "port")

    def __init__(self, addr: str, port: int) -> None:
        self.addr = addr
        self.port = port


class SendAction:
    """One message the worker must transmit."""

    __slots__ = ("text", "target", "kind")

    def __init__(self, text: str, target: Target, kind: str) -> None:
        self.text = text
        self.target = target
        #: "reply" | "forward_request" | "forward_response" | "retransmit"
        self.kind = kind
