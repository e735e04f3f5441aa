"""The Fig. 2 architecture: symmetric UDP worker processes.

The datagram skeleton over a connectionless, unreliable socket: no
connection state, no supervisor, and a timer process that retransmits
unanswered forwards because UDP will not.
"""

from repro.net.udp import UdpEndpoint
from repro.proxy.datagram import DatagramProxyServer
from repro.proxy.routing import ToBinding, ToSource, ToVia


class UdpProxyServer(DatagramProxyServer):
    """OpenSER over UDP."""

    worker_stem = "udp-worker"

    def __init__(self, machine, config, costs=None) -> None:
        super().__init__(machine, config, costs)
        self.socket = UdpEndpoint(machine, config.port,
                                  rcvbuf_datagrams=config.udp_rcvbuf_datagrams)
        self._receive = self.socket.recvfrom
        self._recv_cost = (self.costs.udp_recv_us, "udp_rcv_loop")
        self._send_cost = (self.costs.udp_send_us, "udp_send")

    @staticmethod
    def _unpack(dgram):
        return dgram.payload, dgram.source, dgram.trace_id

    def _resolve(self, target):
        if isinstance(target, ToSource):
            return target.source
        if isinstance(target, ToBinding):
            return (target.binding.addr, target.binding.port)
        if isinstance(target, ToVia):
            return (target.addr, target.port)
        raise TypeError(f"unroutable target {target!r}")

    def _transmit(self, text: str, dest) -> bool:
        self.socket.sendto(text, *dest)
        return True
