"""The datagram skeleton: symmetric workers on one message socket.

Every worker runs the same loop — receive a whole message from the
shared socket, process it, transmit the results — with no connection
state and no supervisor (Fig. 2, and §6's SCTP variant).  Only the
transaction table and the timer list are shared.

A flavor binds ``self.socket`` (anything with a
:class:`~repro.kernel.sockets.DatagramBuffer` as ``buffer``) and sets,
in its ``__init__``:

- ``_receive`` — the socket's blocking receive (a generator function);
- ``_recv_cost`` / ``_send_cost`` — ``(µs, label)`` per-message charges;

and implements ``_unpack(message) -> (payload, source, trace id)``,
``_resolve(target) -> destination`` and
``_transmit(text, destination) -> bool``.
"""

from repro.proxy.base import BaseProxyServer
from repro.sim.primitives import Compute


class DatagramProxyServer(BaseProxyServer):
    """Symmetric message-socket workers (UDP, SCTP)."""

    def queue_fill(self) -> float:
        """Socket receive-buffer fill — the overload panic signal: once
        this saturates, arrivals are silently dropped (and over UDP the
        retransmission spiral begins)."""
        buffer = self.socket.buffer
        return len(buffer.queue) / buffer.capacity

    def _worker_body(self, index: int):
        who = f"{self.worker_stem}-{index}"
        proc_name = f"{self.machine.name}/{who}"
        probe = self.probe
        receive, unpack = self._receive, self._unpack
        recv_us, recv_label = self._recv_cost
        process = self.core.process
        while True:
            message = yield from receive()
            payload, source, trace_id = unpack(message)
            if probe is not None:
                probe.ctx_begin(proc_name, trace_id if trace_id is not None
                                else probe.sniff(payload))
            try:
                yield Compute(recv_us, recv_label)
                actions = yield from process(payload, source=source, who=who)
                yield from self._send_all(actions)
            finally:
                if probe is not None:
                    probe.ctx_end(proc_name)

    def _send_all(self, actions):
        """Generator: the one send path (workers and the timer process)."""
        send_us, send_label = self._send_cost
        resolve, transmit, stats = self._resolve, self._transmit, self.stats
        for action in actions:
            yield Compute(send_us, send_label)
            if transmit(action.text, resolve(action.target)):
                stats.messages_sent += 1
            else:
                stats.send_failures += 1

    def _timer_send(self, action):
        return self._send_all((action,))
