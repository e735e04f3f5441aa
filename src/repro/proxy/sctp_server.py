"""The §6 SCTP architecture: UDP-style symmetry over a connection-
oriented transport.

SCTP's kernel-managed associations let the proxy keep OpenSER's simple
symmetric-worker design (the datagram skeleton) — no supervisor, no
descriptor passing, no user-level idle sweeps — while retaining reliable
delivery (so the timer process carries no retransmission load, only GC).
"""

from repro.net.sctp import SctpEndpoint
from repro.proxy.datagram import DatagramProxyServer
from repro.proxy.routing import ToBinding, ToSource, ToVia


class SctpProxyServer(DatagramProxyServer):
    """OpenSER over SCTP (one-to-many socket)."""

    worker_stem = "sctp-worker"

    def __init__(self, machine, config, costs=None) -> None:
        super().__init__(machine, config, costs)
        self.socket = SctpEndpoint(machine, config.port,
                                   rcvbuf_messages=config.udp_rcvbuf_datagrams)
        self._receive = self.socket.recvmsg
        self._recv_cost = (self.costs.sctp_recv_us, "sctp_rcv_loop")
        self._send_cost = (self.costs.sctp_send_us, "sctp_send")

    @staticmethod
    def _unpack(message):
        assoc, payload = message
        return payload, assoc, None

    def _resolve(self, target):
        if isinstance(target, ToSource):
            return target.source
        if isinstance(target, ToBinding):
            binding = target.binding
            assoc = binding.assoc
            if assoc is None:
                # Direct next-hop URI: the kernel already has (or will
                # implicitly set up) the association to that peer.
                assoc = self.socket.associations.get(
                    (binding.addr, binding.port))
                binding.assoc = assoc
            return assoc
        if isinstance(target, ToVia):
            return self.socket.associations.get((target.addr, target.port))
        raise TypeError(f"unroutable target {target!r}")

    def _transmit(self, text: str, assoc) -> bool:
        if assoc is None or not assoc.established:
            return False
        self.socket.sendmsg(assoc, text)
        return True
