"""The Fig. 1 architecture: TCP supervisor + connection-owning workers.

The supervisor accepts every connection, keeps a descriptor copy for each,
hands ownership to a worker over IPC, answers workers' descriptor
requests, and tears down idle connections.  Workers read (only) the
connections they own, frame SIP messages out of the bytestream, process
them, and — to forward on a connection they do not own — request a
descriptor from the supervisor, *blocking* until it answers (§3.1).

The two §5 fixes are switchable via :class:`~repro.proxy.config.ProxyConfig`:

- ``fd_cache=True`` — workers keep received descriptors (Fig. 4);
- ``idle_strategy="pq"`` — timeout-ordered sweeps (Fig. 5).
"""

from typing import List, Optional

from repro.kernel.fdtable import EmfileError
from repro.kernel.ipc import FdPayload, IpcChannel, IpcMessage, receive_fd
from repro.kernel.poller import Poller, TickSource
from repro.proxy.conn_table import ConnRecord
from repro.proxy.connection import (ConnectionProxyServer, WorkerConn,
                                    WorkerCtx)
from repro.proxy.fd_cache import FdCache
from repro.sim.primitives import Compute

#: minimum gap between supervisor idle sweeps.  OpenSER swept from its
#: main loop; under load that loop turns over far faster than connections
#: can possibly expire, and its effective sweep cadence is bounded by
#: timestamp granularity.  50 Hz models that bound.
SCAN_INTERVAL_US = 10_000.0


class TcpProxyServer(ConnectionProxyServer):
    """OpenSER over TCP."""

    worker_stem = "tcp-worker"

    def __init__(self, machine, config, costs=None) -> None:
        super().__init__(machine, config, costs)
        engine = machine.engine
        #: supervisor -> worker: connection assignments (with fd)
        self.assign_chans = [
            IpcChannel(engine, capacity=config.ipc_capacity,
                       name=f"assign-{i}")
            for i in range(config.workers)
        ]
        #: worker <-> supervisor: fd requests/responses, releases
        self.req_chans = [
            IpcChannel(engine, capacity=config.ipc_capacity, name=f"req-{i}")
            for i in range(config.workers)
        ]
        self.fd_caches: List[Optional[FdCache]] = [None] * config.workers
        for chan in self.assign_chans + self.req_chans:
            chan.probe = self.probe

    def queue_fill(self) -> float:
        """IPC backlog fill — TCP's analogue of a full receive buffer:
        the supervisor has accepted/assigned work faster than workers
        drain it."""
        chans = self.assign_chans + self.req_chans
        pending = sum(chan.pending_total() for chan in chans)
        return pending / (self.config.ipc_capacity * len(chans))

    # -- deadlock-detector surface -------------------------------------
    def ipc_topology(self):
        """The §6 wait-for edges: the supervisor blocked on a channel
        waits on that channel's worker, and vice versa."""
        topo = []
        for index in range(self.config.workers):
            worker = f"worker-{index}"
            topo.append((self.assign_chans[index].a, "supervisor", worker))
            topo.append((self.assign_chans[index].b, worker, "supervisor"))
            topo.append((self.req_chans[index].a, worker, "supervisor"))
            topo.append((self.req_chans[index].b, "supervisor", worker))
        return topo

    def _reap_worker(self, index: int, old) -> None:
        # In-flight messages reference descriptors and a dead peer; drain
        # both channels (dropping queue fd references) before the
        # successor attaches.  Draining the assign channel fires its
        # writable signal, which un-wedges a supervisor blocked in the §6
        # deadlock.
        self.assign_chans[index].drain()
        self.req_chans[index].drain()
        # The dead worker's owned-connection fds and fd-cache entries must
        # not pin sockets open; the supervisor's copies keep live
        # connections alive.
        super()._reap_worker(index, old)
        self.fd_caches[index] = None

    def _rehome(self, index: int) -> dict:
        # Re-dispatch the connections the dead worker owned so their
        # phones see service again instead of a silent socket.
        redispatched = shed = 0
        endpoint = self.assign_chans[index].a
        for record in self.conn_table.all_records():
            if record.owner != index or record.closed or record.released:
                continue
            if record.desc.closed or record.sup_fd is None or \
                    not endpoint.try_send(IpcMessage(
                        "assign", payload=record, fd=FdPayload(record.desc))):
                # Unrecoverable (or buffer full): surrender the record to
                # the supervisor's idle teardown.
                record.released = True
                record.released_at = self.engine.now
                shed += 1
            else:
                redispatched += 1
        self.stats.conns_redispatched += redispatched
        self.stats.conns_shed_on_restart += shed
        return {"redispatched": redispatched, "shed": shed}

    def _spawn_processes(self) -> None:
        self.manager = self.machine.spawn(
            self._supervisor_body(), "tcp-supervisor",
            nice=self.config.supervisor_nice)
        self.processes.append(self.manager)
        super()._spawn_processes()

    # ==================================================================
    # supervisor
    # ==================================================================
    def _supervisor_body(self):
        who = "tcp-supervisor"
        engine = self.engine
        poller = Poller(engine, name="sup-poller")
        poller.add(self.listener)
        for chan in self.req_chans:
            poller.add(chan.b)
        # Periodic wake-up so idle sweeps run even with no traffic.
        tick = TickSource(engine, 500_000.0, name="sup-tick")
        poller.add(tick)
        last_scan = engine.now
        while True:
            ready = yield from poller.wait()
            yield Compute(self.costs.poll_syscall_us +
                          self.costs.poll_per_fd_us * len(poller.sources),
                          "tcp_main_loop")
            for source in ready:
                if source is tick:
                    tick.consume()
                elif source is self.listener:
                    while True:
                        conn = self.listener.try_accept()
                        if conn is None:
                            break
                        yield from self._handle_accept(conn, who)
                else:
                    while True:
                        msg = source.try_recv()
                        if msg is None:
                            break
                        yield Compute(self.costs.ipc_recv_us, "ipc_recv")
                        yield from self._handle_worker_msg(source, msg, who)
            if engine.now - last_scan >= SCAN_INTERVAL_US:
                last_scan = engine.now
                expired = yield from self.idle.supervisor_pass(
                    self.conn_table, engine.now, who, self.stats)
                for record in expired:
                    yield from self._destroy_record(record, who)

    def _handle_accept(self, conn, who: str):
        record = yield from self._accept(conn, who)
        if record is None:
            return
        yield Compute(self.costs.fd_dup_us + self.costs.ipc_send_us,
                      "send_fd")
        msg = IpcMessage("assign", payload=record, fd=FdPayload(record.desc))
        endpoint = self.assign_chans[record.owner].a
        if self.config.supervisor_blocking_send:
            yield from endpoint.send(msg)
        elif not endpoint.try_send(msg):
            # Assignment buffer full: shed the connection.  (try_send took
            # no queue reference, so only the supervisor's fd is closed.)
            self.stats.send_failures += 1
            self.manager.fdtable.close(record.sup_fd)
            yield from self.conn_table.remove(record, who)

    def _handle_worker_msg(self, endpoint, msg: IpcMessage, who: str):
        if msg.kind == "fd-req":
            record: ConnRecord = msg.payload
            self.stats.fd_requests += 1
            probe = self.probe
            span = (probe.begin("tcpconn_send_fd", cat="ipc",
                                who=self.manager.name,
                                conn=record.conn_id)
                    if probe is not None else None)
            yield Compute(self.costs.fd_request_cost(len(self.conn_table)) +
                          self.costs.fd_dup_us, "tcpconn_send_fd")
            if record.closed or record.desc.closed:
                reply = IpcMessage("fd-gone", payload=record)
            else:
                reply = IpcMessage("fd-resp", payload=record,
                                   fd=FdPayload(record.desc))
            yield Compute(self.costs.ipc_send_us, "ipc_send")
            if not endpoint.try_send(reply):
                yield from endpoint.send(reply)
            if span is not None:
                probe.end(span.set(gone=reply.kind == "fd-gone"))
        elif msg.kind == "release":
            record = msg.payload
            self.stats.conns_released_by_worker += 1
            yield from self.idle.on_release(record, self.engine.now)
        elif msg.kind == "new-outbound":
            record = msg.payload
            yield Compute(self.costs.fd_install_us, "receive_fd")
            try:
                record.sup_fd = receive_fd(msg, self.manager.fdtable)
            except EmfileError:
                msg.fd.description.decref()
                record.sup_fd = None
        else:
            raise ValueError(f"unknown supervisor message {msg.kind!r}")

    def _destroy_record(self, record: ConnRecord, who: str):
        fdtable = self.manager.fdtable
        if self.controller is not None:
            # A dead upstream must not keep holding overload-window slots.
            self.controller.forget_source(record)
        yield Compute(self.costs.fd_close_us, "tcp_close")
        if record.sup_fd is not None and record.sup_fd in fdtable:
            fdtable.close(record.sup_fd)
        record.sup_fd = None
        yield from self.conn_table.remove(record, who)
        self.stats.conns_closed_idle += 1

    # ==================================================================
    # workers
    # ==================================================================
    def _worker_body(self, index: int):
        assign_ep = self.assign_chans[index].b
        ctx = WorkerCtx(self, index, self.workers[index].fdtable, assign_ep)
        ctx.req_ep = self.req_chans[index].a
        if self.config.fd_cache:
            ctx.cache = FdCache(ctx.fdtable, ctx.who)
            ctx.cache.obs_probe = self.probe
        self.fd_caches[index] = ctx.cache
        poller, tick, conns = ctx.poller, ctx.tick, ctx.conns
        while True:
            ready = yield from poller.wait()
            yield Compute(self.costs.poll_syscall_us +
                          self.costs.poll_per_fd_us * len(poller.sources),
                          "epoll_wait")
            for source in ready:
                if source is tick:
                    tick.consume()
                elif source is assign_ep:
                    while True:
                        msg = assign_ep.try_recv()
                        if msg is None:
                            break
                        yield from self._worker_take_conn(ctx, msg)
                else:
                    wc = conns.get(source)
                    if wc is None:
                        poller.remove(source)
                        continue
                    yield from self._worker_read(ctx, wc)
            # §5.2: "even the worker processes examined every connection
            # they owned" — OpenSER's receive loop checks timeouts every
            # iteration, so the examination cost scales with both the
            # owned population and the loop rate.  (The tick source only
            # guarantees a wake-up when the connections have gone quiet.)
            yield from self._worker_idle_pass(ctx)

    def _worker_take_conn(self, ctx: WorkerCtx, msg: IpcMessage):
        yield Compute(self.costs.ipc_recv_us + self.costs.fd_install_us,
                      "receive_fd")
        record: ConnRecord = msg.payload
        try:
            fd = receive_fd(msg, ctx.fdtable)
        except EmfileError:
            msg.fd.description.decref()
            yield Compute(self.costs.ipc_send_us, "ipc_send")
            yield from ctx.req_ep.send(IpcMessage("release", payload=record))
            return
        ctx.conns[record.conn] = WorkerConn(record, fd)
        ctx.poller.add(record.conn)

    def _adopt_outbound(self, ctx: WorkerCtx, wc: WorkerConn):
        ctx.conns[wc.record.conn] = wc
        ctx.poller.add(wc.record.conn)
        # The supervisor keeps a copy of every socket in the server (§3.1).
        yield Compute(self.costs.fd_dup_us + self.costs.ipc_send_us,
                      "send_fd")
        yield from ctx.req_ep.send(IpcMessage(
            "new-outbound", payload=wc.record, fd=FdPayload(wc.record.desc)))

    # -- sending: descriptor acquisition (the paper's variable) -----------
    def _send_on_record(self, ctx: WorkerCtx, record: ConnRecord, text: str):
        probe = self.probe
        span = (probe.begin("worker_send", cat="proxy", who=ctx.proc_name,
                            conn=record.conn_id)
                if probe is not None else None)
        wc = ctx.conns.get(record.conn)
        close_after = False
        fd: Optional[int] = None
        if wc is not None:
            fd = wc.fd  # we own it; our reader fd works for writing too
            if span is not None:
                span.set(fd_via="owned")
        else:
            if ctx.cache is not None:
                yield Compute(self.costs.fd_cache_probe_us, "fd_cache_lookup")
                fd = ctx.cache.probe(record)
                if fd is not None:
                    self.stats.fd_cache_hits += 1
                else:
                    self.stats.fd_cache_misses += 1
                if probe is not None:
                    hit = fd is not None
                    probe.count("fdcache.hit" if hit else "fdcache.miss")
                    probe.instant("fd_cache_hit" if hit else "fd_cache_miss",
                                  cat="proxy", who=ctx.proc_name,
                                  conn=record.conn_id)
            if fd is None:
                if span is not None:
                    span.set(fd_via="supervisor")
                fd = yield from self._request_fd(ctx, record)
                if fd is None:
                    self.stats.send_failures += 1
                    if span is not None:
                        probe.end(span.set(outcome="fd_gone"))
                    return
                if ctx.cache is not None:
                    ctx.cache.store(record, fd)
                else:
                    close_after = True
            elif span is not None:
                span.set(fd_via="cache")
        sent = yield from self._write(record, text)
        if sent:
            yield from self.idle.on_activity(record, self.engine.now)
        if close_after and fd in ctx.fdtable:
            # The baseline behaviour the fd cache exists to fix (§5.1):
            # immediately close the descriptor we just fetched.
            yield Compute(self.costs.fd_close_us, "tcp_close_fd")
            ctx.fdtable.close(fd)
        if span is not None:
            probe.end(span.set(outcome="sent" if sent else "failed"))

    def _request_fd(self, ctx: WorkerCtx, record: ConnRecord):
        """Generator: the §3.1 IPC round trip — the worker blocks."""
        probe = self.probe
        span = (probe.begin("fd_request_rtt", cat="ipc", who=ctx.proc_name,
                            conn=record.conn_id)
                if probe is not None else None)
        yield Compute(self.costs.ipc_send_us, "ipc_send_fd_request")
        yield from ctx.req_ep.send(IpcMessage("fd-req", payload=record))
        reply = yield from ctx.req_ep.recv()
        yield Compute(self.costs.ipc_recv_us, "ipc_recv")
        if span is not None:
            probe.end(span.set(gone=reply.kind != "fd-resp"))
        if reply.kind != "fd-resp" or reply.fd is None:
            return None
        yield Compute(self.costs.fd_install_us, "receive_fd")
        try:
            return receive_fd(reply, ctx.fdtable)
        except EmfileError:
            reply.fd.description.decref()
            return None

    # -- idle management ------------------------------------------------
    def _worker_idle_pass(self, ctx: WorkerCtx):
        expired = yield from self.idle.worker_pass(
            ctx.conns, self.engine.now, ctx.who, self.stats,
            worker_index=ctx.index)
        for record in expired:
            yield from self._drop_conn(ctx, record)
        if ctx.cache is not None:
            evicted = ctx.cache.evict_dead()
            if evicted:
                yield Compute(self.costs.fd_close_us * evicted,
                              "tcp_close_fd")

    def _drop_conn(self, ctx: WorkerCtx, record: ConnRecord):
        """Close our fds for a connection and return it to the supervisor
        (the first half of the §3.1 two-step teardown)."""
        wc = ctx.conns.pop(record.conn, None)
        if wc is None:
            return
        ctx.poller.remove(record.conn)
        yield Compute(self.costs.fd_close_us, "tcp_close_fd")
        if wc.fd in ctx.fdtable:
            ctx.fdtable.close(wc.fd)
        if ctx.cache is not None:
            ctx.cache.evict_record(record)
        yield Compute(self.costs.ipc_send_us, "ipc_send")
        yield from ctx.req_ep.send(IpcMessage("release", payload=record))
