"""The connection skeleton: what every TCP flavor does the same way.

A connection manager (supervisor process / acceptor thread) accepts
connections into the shared :class:`~repro.proxy.conn_table.ConnTable`
and hands each to a worker; the worker reads the connections it owns,
frames SIP messages out of the bytestream, runs the core, resolves each
send target to a connection (dialing out if none is live) and writes.

What the paper varies stays in the flavors, as plain subclass hooks:

- ``_send_on_record(ctx, record, text)`` — how a worker comes by a
  *descriptor* for a connection it does not own (supervisor IPC round
  trip §3.1, per-worker fd cache §5.1, shared fd table §6);
- ``_drop_conn(ctx, record)`` — who tears a connection down (two-phase
  release to the supervisor vs. a single close);
- ``_adopt_outbound(ctx, wc)`` — how a dialed-out connection reaches its
  reader and the manager.
"""

from typing import Dict

from repro.kernel.fdtable import EmfileError, FileDescription
from repro.kernel.poller import Poller, TickSource
from repro.kernel.sockets import PortExhaustedError
from repro.net.tcp import TcpError, TcpListener, connect as tcp_connect
from repro.proxy.base import BaseProxyServer
from repro.proxy.conn_table import ConnRecord, ConnTable
from repro.proxy.idle_pq import PqIdleStrategy
from repro.proxy.idle_scan import ScanIdleStrategy
from repro.proxy.routing import SendAction, ToBinding, ToSource, ToVia
from repro.sim.primitives import Compute
from repro.sip.parser import SipParseError, StreamFramer

#: workers (and the threaded acceptor) wake at least this often to check
#: their connections for idleness
IDLE_TICK_US = 1_000_000.0


class WorkerConn:
    """A connection as its reading worker sees it."""

    __slots__ = ("record", "fd", "framer", "send_lock")

    def __init__(self, record: ConnRecord, fd: int) -> None:
        self.record = record
        self.fd = fd
        self.framer = StreamFramer()
        #: per-connection write lock, set where workers share descriptors
        self.send_lock = None


class WorkerCtx:
    """One worker's identity and mutable state for the helper generators."""

    __slots__ = ("index", "who", "proc_name", "fdtable", "poller", "tick",
                 "conns", "cache", "req_ep")

    def __init__(self, server, index: int, fdtable, intake) -> None:
        self.index = index
        self.who = f"{server.worker_stem}-{index}"
        #: full scheduler process name (the causal context key)
        self.proc_name = f"{server.machine.name}/{self.who}"
        #: the descriptor table this worker installs into
        self.fdtable = fdtable
        self.poller = Poller(server.engine, name=f"{self.who}-poller")
        # First the source announcing newly assigned connections, then
        # the tick: poller order is the order ready sources are served.
        self.poller.add(intake)
        #: guarantees a wake-up when the connections have gone quiet
        self.tick = TickSource(server.engine, IDLE_TICK_US,
                               name=f"{self.who}-tick")
        self.poller.add(self.tick)
        #: the connections this worker reads, by kernel connection object
        self.conns: Dict[object, WorkerConn] = {}
        #: process-TCP only: the worker's fd cache and supervisor channel
        self.cache = None
        self.req_ep = None


class ConnectionProxyServer(BaseProxyServer):
    """Listener + connection table + idle strategy + the worker's
    read → frame → process → resolve → dial-out → write path."""

    def __init__(self, machine, config, costs=None) -> None:
        super().__init__(machine, config, costs)
        self.listener = TcpListener(machine, config.port, backlog=1024)
        self.conn_table = ConnTable(self.costs)
        if config.idle_strategy == "pq":
            self.idle = PqIdleStrategy(self.costs, config.idle_timeout_us,
                                       config.workers)
        else:
            self.idle = ScanIdleStrategy(self.costs, config.idle_timeout_us)
        #: the connection-manager process (spawned first by the flavor);
        #: its descriptor table holds a copy of every socket in the server
        self.manager = None
        self._assign_rr = 0
        self.idle.probe = self.conn_table.lock.probe = self.probe
        if hasattr(self.idle, "lock"):  # the scan strategy has none
            self.idle.lock.probe = self.probe

    def _shared_locks(self):
        locks = super()._shared_locks() + [self.conn_table.lock]
        if hasattr(self.idle, "lock"):
            locks.append(self.idle.lock)
        return locks

    # -- manager side ---------------------------------------------------
    def _accept(self, conn, who: str):
        """Generator: install an accepted connection in the manager's
        descriptor table and the shared table, owned round-robin.
        Returns its record, or None when out of descriptors."""
        yield Compute(self.costs.accept_us, "tcp_accept")
        desc = FileDescription(conn, "tcp-conn")
        try:
            fd = self.manager.fdtable.install(desc)
        except EmfileError:
            self.stats.accept_failures += 1
            conn.close()
            return None
        self.stats.accepts += 1
        self.stats.conns_created += 1
        owner = self._assign_rr % self.config.workers
        self._assign_rr += 1
        if self.probe is not None:
            self.probe.instant("tcp_accept", cat="proxy",
                               who=f"{self.machine.name}/{who}",
                               worker=owner)
        record = yield from self.conn_table.insert(conn, desc, owner,
                                                   self.engine.now, who)
        record.sup_fd = fd
        yield from self.idle.on_insert(record, self.engine.now)
        return record

    # -- worker side: reading -------------------------------------------
    def _worker_read(self, ctx: WorkerCtx, wc: WorkerConn):
        record = wc.record
        data = record.conn.try_recv(65536)
        if data is None:
            return
        yield Compute(self.costs.tcp_recv_us, "tcp_read")
        if data == "":
            # Peer closed: drop our side.
            yield from self._drop_conn(ctx, record)
            return
        try:
            texts = wc.framer.feed(data)
        except SipParseError:
            self.stats.parse_errors += 1
            yield from self._drop_conn(ctx, record)
            return
        probe = self.probe
        for text in texts:
            if probe is not None:
                # Everything the worker does until this message is fully
                # handled — framing, core processing, descriptor
                # acquisition, the sends — attributes to its trace id.
                probe.ctx_begin(ctx.proc_name, probe.sniff(text))
            try:
                yield Compute(self.costs.tcp_frame_us, "tcp_read_headers")
                yield from self.idle.on_activity(record, self.engine.now)
                actions = yield from self.core.process(text, source=record,
                                                       who=ctx.who)
                contact = self.core.take_register_contact()
                if contact is not None:
                    yield from self.conn_table.set_alias(record, contact,
                                                         ctx.who)
                for action in actions:
                    yield from self._worker_send(ctx, action)
            finally:
                if probe is not None:
                    probe.ctx_end(ctx.proc_name)

    # -- worker side: sending -------------------------------------------
    def _worker_send(self, ctx: WorkerCtx, action: SendAction):
        record = yield from self._resolve_target(ctx, action.target)
        if record is None or record.closed:
            self.stats.send_failures += 1
            return
        yield from self._send_on_record(ctx, record, action.text)

    def _resolve_target(self, ctx: WorkerCtx, target):
        """Generator: the live connection record ``target`` names."""
        if isinstance(target, ToSource):
            return target.source
        if isinstance(target, ToBinding):
            binding = target.binding
            record = binding.conn
            if isinstance(record, ConnRecord) and not record.closed and \
                    not record.released:
                return record
            record = yield from self.conn_table.lookup_alias(
                (binding.addr, binding.port), ctx.who)
            if record is None:
                record = yield from self._connect_out(ctx, binding)
            if record is not None:
                binding.conn = record
            return record
        if isinstance(target, ToVia):
            return (yield from self.conn_table.lookup_alias(
                (target.addr, target.port), ctx.who))
        raise TypeError(f"unroutable target {target!r}")

    def _connect_out(self, ctx: WorkerCtx, binding):
        """Generator: no live connection to the phone — dial out (consumes
        a server ephemeral port; the §4.3 starvation ingredient)."""
        yield Compute(self.costs.connect_us, "tcpconn_connect")
        try:
            conn = yield from tcp_connect(self.machine, binding.addr,
                                          binding.port)
        except (PortExhaustedError, TcpError):
            return None
        desc = FileDescription(conn, "tcp-conn")
        try:
            fd = ctx.fdtable.install(desc)
        except EmfileError:
            conn.close()
            return None
        self.stats.outbound_connects += 1
        self.stats.conns_created += 1
        record = yield from self.conn_table.insert(conn, desc, ctx.index,
                                                   self.engine.now, ctx.who)
        yield from self.idle.on_insert(record, self.engine.now)
        yield from self.conn_table.set_alias(
            record, (binding.addr, binding.port), ctx.who)
        yield from self._adopt_outbound(ctx, WorkerConn(record, fd))
        return record

    def _write(self, record: ConnRecord, text: str):
        """Generator: one stream write, counted; returns whether it went
        out (the caller then notes the activity, outside any send lock)."""
        yield Compute(self.costs.tcp_send_us, "tcp_send")
        sent = record.conn.try_send(text)
        if not sent:
            try:
                yield from record.conn.send(text)
                sent = True
            except TcpError:
                pass
        if sent:
            self.stats.messages_sent += 1
        else:
            self.stats.send_failures += 1
        return sent

    # -- flavor hooks ---------------------------------------------------
    def _send_on_record(self, ctx: WorkerCtx, record: ConnRecord, text: str):
        """Generator: acquire a descriptor for ``record`` and write."""
        raise NotImplementedError

    def _drop_conn(self, ctx: WorkerCtx, record: ConnRecord):
        """Generator: the reading worker gives up ``record``."""
        raise NotImplementedError

    def _adopt_outbound(self, ctx: WorkerCtx, wc: WorkerConn):
        """Generator: route a dialed-out connection to its reader."""
        raise NotImplementedError
