"""The paper's subject: an OpenSER-style stateful SIP proxy.

Four interchangeable architectures over one transport-independent core
(:mod:`~repro.proxy.core`).  :mod:`~repro.proxy.base` holds what all four
share — worker spawn, the restart template, the timer process — and
two skeletons hold what each pair shares, so a flavor keeps only what
the paper varies:

- :mod:`~repro.proxy.datagram` — symmetric workers on one message socket
  (worker loop, send path, receive-buffer queue signal):

  - :mod:`~repro.proxy.udp_server` — Fig. 2: the UDP socket, plus the
    retransmission load on the timer process;
  - :mod:`~repro.proxy.sctp_server` — §6: kernel-managed associations.

- :mod:`~repro.proxy.connection` — listener, connection table, idle
  strategy and the worker's read → frame → process → resolve → dial-out
  → write path; flavors decide how a worker gets a *descriptor* for a
  connection it does not own and who tears connections down:

  - :mod:`~repro.proxy.tcp_server` — Fig. 1: supervisor, fd-passing IPC,
    two-phase teardown, and the two §5 fixes (per-worker fd cache,
    priority-queue idle management);
  - :mod:`~repro.proxy.threaded_server` — §6: one shared descriptor
    table, so connections need a send lock, not IPC.

All CPU costs come from :class:`~repro.proxy.costs.CostModel`.
"""

from repro.proxy.config import ProxyConfig
from repro.proxy.costs import CostModel
from repro.proxy.stats import ProxyStats
from repro.proxy.server import build_proxy

__all__ = ["ProxyConfig", "CostModel", "ProxyStats", "build_proxy"]
