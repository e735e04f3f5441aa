"""Wire units carried by the fabric."""

from typing import Optional


class Datagram:
    """A UDP datagram.  (SCTP does not use it: an SCTP endpoint's receive
    buffer queues ``(association, payload)`` tuples.)"""

    __slots__ = ("src_addr", "src_port", "dst_addr", "dst_port", "payload",
                 "size", "trace_id", "sent_at", "queued_at")

    def __init__(self, src_addr: str, src_port: int, dst_addr: str,
                 dst_port: int, payload: str) -> None:
        self.src_addr = src_addr
        self.src_port = src_port
        self.dst_addr = dst_addr
        self.dst_port = dst_port
        self.payload = payload
        #: on-wire size: payload plus IP+UDP headers
        self.size = len(payload) + 28
        #: causal-tracing tags (set only when a CausalTracer is attached)
        self.trace_id: Optional[str] = None
        self.sent_at: Optional[float] = None
        self.queued_at: Optional[float] = None

    @property
    def source(self) -> tuple:
        return (self.src_addr, self.src_port)
