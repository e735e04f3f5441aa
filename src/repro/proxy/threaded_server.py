"""The §6 alternative: a multi-threaded TCP architecture.

All workers share one address space and one descriptor table, so
"the threads would be able to use any file descriptor in the server
without any expensive transfer operations" — no supervisor IPC, no fd
passing, no two-step teardown.  What remains is locking: transaction
state (as before) and per-connection send atomicity, so that two threads
cannot interleave bytes on one stream.

Threads are modeled as kernel-scheduled processes sharing the acceptor
thread's descriptor table and the in-memory connection structures, which
is exactly the sharing the paper says a threaded design would get for
free.
"""

from typing import Dict, List

from repro.kernel.locks import SpinLock
from repro.kernel.poller import Poller, TickSource
from repro.proxy.conn_table import ConnRecord
from repro.proxy.connection import (IDLE_TICK_US, ConnectionProxyServer,
                                    WorkerConn, WorkerCtx)
from repro.sim.events import Signal
from repro.sim.primitives import Compute


class ThreadedTcpProxyServer(ConnectionProxyServer):
    """A threaded, shared-everything TCP proxy."""

    worker_stem = "tcp-thread"

    def __init__(self, machine, config, costs=None) -> None:
        super().__init__(machine, config, costs)
        #: shared conn state, keyed by the kernel connection object
        self.conns: Dict[object, WorkerConn] = {}
        #: per-thread inboxes of newly accepted connections
        self._inboxes: List[List[WorkerConn]] = [
            [] for __ in range(config.workers)]
        self._inbox_signals: List[Signal] = [
            Signal(machine.engine, name=f"thr-inbox-{i}")
            for i in range(config.workers)
        ]

    def _spawn_processes(self) -> None:
        self.manager = self.machine.spawn(self._acceptor_body(),
                                          "tcp-acceptor")
        self.processes.append(self.manager)
        super()._spawn_processes()

    # -- watchdog surface -----------------------------------------------
    def _shared_locks(self):
        return super()._shared_locks() + [
            wc.send_lock for wc in self.conns.values()]

    def _rehome(self, index: int) -> dict:
        # The dead thread's connections live on in shared memory (framer
        # state included); queue them all for its successor.
        inbox = self._inboxes[index]
        inbox[:] = [wc for wc in self.conns.values()
                    if wc.record.owner == index and not wc.record.closed]
        if inbox:
            self._inbox_signals[index].fire()
        self.stats.conns_redispatched += len(inbox)
        return {"redispatched": len(inbox), "shed": 0}

    # ==================================================================
    # acceptor thread: accepts and sweeps idle connections
    # ==================================================================
    def _acceptor_body(self):
        who = "tcp-acceptor"
        engine = self.engine
        poller = Poller(engine, name="acceptor-poller")
        poller.add(self.listener)
        tick = TickSource(engine, IDLE_TICK_US, name="acceptor-tick")
        poller.add(tick)
        while True:
            yield from poller.wait()
            yield Compute(self.costs.poll_syscall_us, "accept_loop")
            while True:
                conn = self.listener.try_accept()
                if conn is None:
                    break
                record = yield from self._accept(conn, who)
                if record is not None:
                    # Hand to the owning thread: shared memory, not IPC.
                    yield Compute(0.5, "queue_push")
                    self._publish(WorkerConn(record, record.sup_fd))
            if tick.pending:
                tick.consume()
                expired = yield from self.idle.supervisor_pass(
                    self.conn_table, engine.now, who, self.stats,
                    single_phase=True)
                for record in expired:
                    yield from self._close_conn(record, who)

    def _publish(self, wc: WorkerConn) -> None:
        """Make a connection visible to every thread and queue it for
        its reader."""
        record = wc.record
        wc.send_lock = SpinLock(f"conn-{record.conn_id}-send")
        self.conns[record.conn] = wc
        self._inboxes[record.owner].append(wc)
        self._inbox_signals[record.owner].fire()

    def _close_conn(self, record: ConnRecord, who: str):
        """Single-phase teardown: one close, no worker round trip."""
        if self.controller is not None:
            self.controller.forget_source(record)
        wc = self.conns.pop(record.conn, None)
        yield Compute(self.costs.fd_close_us, "tcp_close")
        if wc is not None and wc.fd in self.manager.fdtable:
            self.manager.fdtable.close(wc.fd)
        yield from self.conn_table.remove(record, who)
        self.stats.conns_closed_idle += 1

    def _drop_conn(self, ctx: WorkerCtx, record: ConnRecord):
        return self._close_conn(record, ctx.who)

    # ==================================================================
    # worker threads
    # ==================================================================
    def _worker_body(self, index: int):
        inbox = self._inboxes[index]
        intake = _InboxSource(inbox, self._inbox_signals[index])
        # Threads install into the one shared descriptor table.
        ctx = WorkerCtx(self, index, self.manager.fdtable, intake)
        poller, tick, mine = ctx.poller, ctx.tick, ctx.conns
        while True:
            ready = yield from poller.wait()
            yield Compute(self.costs.poll_syscall_us +
                          self.costs.poll_per_fd_us * len(poller.sources),
                          "epoll_wait")
            for source in ready:
                if source is tick:
                    tick.consume()
                    for conn, wc in list(mine.items()):
                        if wc.record.closed:
                            poller.remove(conn)
                            del mine[conn]
                elif source is intake:
                    while inbox:
                        wc = inbox.pop(0)
                        yield Compute(0.5, "queue_pop")
                        mine[wc.record.conn] = wc
                        poller.add(wc.record.conn)
                else:
                    wc = mine.get(source)
                    if wc is None or wc.record.closed:
                        poller.remove(source)
                        mine.pop(source, None)
                        continue
                    yield from self._worker_read(ctx, wc)

    def _adopt_outbound(self, ctx: WorkerCtx, wc: WorkerConn):
        wc.record.sup_fd = wc.fd
        self._publish(wc)
        yield from ()

    # -- sending: any thread may use any descriptor (§6) ------------------
    def _send_on_record(self, ctx: WorkerCtx, record: ConnRecord, text: str):
        wc = self.conns.get(record.conn)
        if wc is None:
            self.stats.send_failures += 1
            return
        # Per-connection lock: atomic use of the stream, no fd transfer.
        yield from wc.send_lock.acquire(ctx.who)
        try:
            sent = yield from self._write(record, text)
        finally:
            wc.send_lock.release()
        if sent:
            yield from self.idle.on_activity(record, self.engine.now)


class _InboxSource:
    """Poller source over a thread's new-connection inbox."""

    __slots__ = ("inbox", "readable_signal")

    def __init__(self, inbox: List, signal: Signal) -> None:
        self.inbox = inbox
        self.readable_signal = signal

    def readable(self) -> bool:
        return bool(self.inbox)
