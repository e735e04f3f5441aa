"""Unit tests for the epoll-like poller."""

from repro import ProxyConfig, Testbed, build_proxy
from repro.sim.engine import Engine
from repro.sim.primitives import Compute
from repro.sim.process import SimProcess
from repro.kernel.ipc import IpcChannel, IpcMessage
from repro.kernel.poller import Poller, TickSource
from repro.kernel.sockets import DatagramBuffer, StreamBuffer
from repro.net.sctp import SctpEndpoint
from repro.net.tcp import TcpListener, connect
from repro.net.udp import UdpEndpoint
from repro.proxy.conn_table import ConnRecord
from repro.proxy.connection import WorkerConn
from repro.proxy.threaded_server import _InboxSource

from conftest import drive, make_lan, run_until_done


def test_wait_returns_ready_source_immediately(engine):
    poller = Poller(engine)
    buf = DatagramBuffer(engine, capacity=4)
    poller.add(buf)
    buf.push("x")

    def body():
        ready = yield from poller.wait()
        return ready

    proc = SimProcess(engine, body(), "p").start()
    run_until_done(engine, [proc])
    assert proc.result == [buf]


def test_wait_blocks_until_data_arrives(engine):
    poller = Poller(engine)
    buf = DatagramBuffer(engine, capacity=4)
    poller.add(buf)
    woke_at = []

    def body():
        ready = yield from poller.wait()
        woke_at.append(engine.now)
        return ready

    proc = SimProcess(engine, body(), "p").start()
    engine.schedule(250.0, buf.push, "late")
    run_until_done(engine, [proc])
    assert woke_at == [250.0]
    assert proc.result == [buf]


def test_wait_over_multiple_sources(engine):
    poller = Poller(engine)
    chan = IpcChannel(engine, capacity=4)
    buf = DatagramBuffer(engine, capacity=4)
    poller.add(chan.b)
    poller.add(buf)

    def body():
        ready = yield from poller.wait()
        return ready

    proc = SimProcess(engine, body(), "p").start()
    engine.schedule(10.0, chan.a.try_send, IpcMessage("hi"))
    run_until_done(engine, [proc])
    assert proc.result == [chan.b]


def test_stale_wakeups_are_harmless(engine):
    """A source that fires while nobody is waiting must not corrupt a later
    wait round."""
    poller = Poller(engine)
    buf = DatagramBuffer(engine, capacity=4)
    poller.add(buf)
    results = []

    def body():
        ready = yield from poller.wait()
        results.append(list(ready))
        buf.pop()
        ready = yield from poller.wait()
        results.append(list(ready))

    proc = SimProcess(engine, body(), "p").start()
    engine.schedule(10.0, buf.push, "a")
    engine.schedule(20.0, buf.push, "b")
    run_until_done(engine, [proc])
    assert results == [[buf], [buf]]


def test_remove_source(engine):
    poller = Poller(engine)
    buf = DatagramBuffer(engine, capacity=4)
    poller.add(buf)
    poller.remove(buf)
    buf.push("x")
    assert poller.ready() == []


def test_add_is_idempotent(engine):
    poller = Poller(engine)
    buf = DatagramBuffer(engine, capacity=4)
    poller.add(buf)
    poller.add(buf)
    assert len(poller.sources) == 1


def test_ready_keeps_add_order_across_re_add(engine):
    poller = Poller(engine)
    bufs = [DatagramBuffer(engine, capacity=4, name=f"b{i}") for i in range(3)]
    for buf in bufs:
        poller.add(buf)
    poller.remove(bufs[0])
    poller.add(bufs[0])
    for buf in reversed(bufs):
        buf.push("x")
    assert poller.ready() == [bufs[1], bufs[2], bufs[0]]
    assert poller.sources == [bufs[1], bufs[2], bufs[0]]


class _CountingBuffer(DatagramBuffer):
    checks = 0

    def readable(self) -> bool:
        _CountingBuffer.checks += 1
        return super().readable()


def test_ready_examines_only_signalled_sources(engine):
    """O(ready), not O(sources): the host-side scan does not pay for the
    idle sources the simulated ``epoll_wait`` is charged for."""
    poller = Poller(engine)
    bufs = [_CountingBuffer(engine, capacity=4) for __ in range(500)]
    for buf in bufs:
        poller.add(buf)
    bufs[321].push("x")
    _CountingBuffer.checks = 0
    assert poller.ready() == [bufs[321]]
    assert _CountingBuffer.checks <= 2
    bufs[321].pop()
    assert poller.ready() == []
    assert poller.ready() == []
    assert _CountingBuffer.checks <= 3
    assert len(poller.sources) == 500


# -- the readiness invariant the hot set relies on (DESIGN.md §3d) -----
def assert_edges_signalled(source, steps):
    """Run each step; whenever it takes ``source`` from not readable to
    readable, ``readable_signal`` must have fired during it."""
    fired = []
    source.readable_signal.listen(fired.append)
    edges = 0
    for step in steps:
        before = source.readable()
        del fired[:]
        step()
        if not before and source.readable():
            edges += 1
            assert fired, f"{source!r}: readable without a signal"
    assert edges >= 2  # the steps must actually exercise the edge


def test_stream_buffer_signals_every_edge(engine):
    buf = StreamBuffer(engine, capacity_bytes=64)
    assert_edges_signalled(buf, [
        lambda: buf.push("abc"), lambda: buf.read(2), lambda: buf.read(),
        lambda: buf.push("d"), lambda: buf.read(), lambda: buf.push_eof()])


def test_ipc_endpoint_signals_every_edge(engine):
    chan = IpcChannel(engine, capacity=4)
    end = chan.b
    assert_edges_signalled(end, [
        lambda: chan.a.try_send(IpcMessage("m")), end.try_recv,
        lambda: chan.a.try_send(IpcMessage("m")), chan.drain,
        lambda: chan.a.try_send(IpcMessage("m"))])


def test_tick_source_signals_every_edge(engine):
    tick = TickSource(engine, 100.0)
    assert_edges_signalled(tick, [
        lambda: engine.run(until=150.0), tick.consume,
        lambda: engine.run(until=250.0), tick.consume])


def test_udp_endpoint_signals_every_edge(engine):
    __, machines = make_lan(engine, ["client", "server"])
    server = UdpEndpoint(machines["server"], 5060)
    client = UdpEndpoint(machines["client"], 40000)

    def datagram():
        client.sendto("hello", "server", 5060)
        engine.run()

    assert_edges_signalled(server, [datagram, server.try_recvfrom,
                                    datagram, datagram,
                                    server.try_recvfrom])


def test_sctp_endpoint_signals_every_edge(engine):
    __, machines = make_lan(engine, ["client", "server"])
    server = SctpEndpoint(machines["server"], 5060)
    client = SctpEndpoint(machines["client"], 40000)
    assoc = drive(engine, client.connect("server", 5060))

    def message():
        client.sendmsg(assoc, "hello")
        engine.run()

    assert_edges_signalled(server, [message, server.buffer.pop, message])


def test_tcp_listener_signals_every_edge(engine):
    __, machines = make_lan(engine, ["client", "server"])
    listener = TcpListener(machines["server"], 5060)

    def syn():
        machines["client"].spawn_light(
            connect(machines["client"], "server", 5060), "c").start()
        engine.run()

    assert_edges_signalled(listener, [syn, listener.try_accept, syn])


def test_inbox_source_signals_every_edge():
    bed = Testbed(seed=1)
    server = build_proxy(bed.server, ProxyConfig(transport="tcp-threaded",
                                                 workers=2))
    intake = _InboxSource(server._inboxes[0], server._inbox_signals[0])
    records = [ConnRecord(i, object(), None, 0, 0.0) for i in range(2)]

    def publish():
        server._publish(WorkerConn(records.pop(), None))

    assert_edges_signalled(intake, [
        publish, intake.inbox.clear, publish, intake.inbox.clear,
        lambda: server._rehome(0)])
