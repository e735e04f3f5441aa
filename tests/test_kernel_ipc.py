"""Unit tests for IPC channels, fd passing, and the blocking-send deadlock."""

import pytest

from repro.sim.engine import Engine
from repro.sim.primitives import Compute
from repro.sim.process import SimProcess
from repro.kernel.fdtable import FdTable, FileDescription
from repro.kernel.ipc import FdPayload, IpcChannel, IpcMessage, receive_fd

from conftest import run_until_done


def test_send_then_recv(engine):
    chan = IpcChannel(engine, capacity=4)
    got = []

    def sender():
        yield from chan.a.send(IpcMessage("hello", payload=123))

    def receiver():
        msg = yield from chan.b.recv()
        got.append((msg.kind, msg.payload))

    s = SimProcess(engine, sender(), "s").start()
    r = SimProcess(engine, receiver(), "r").start()
    run_until_done(engine, [s, r])
    assert got == [("hello", 123)]


def test_recv_blocks_until_message(engine):
    chan = IpcChannel(engine, capacity=4)
    got = []

    def receiver():
        msg = yield from chan.b.recv()
        got.append(engine.now)
        return msg

    def sender():
        yield Compute(500.0)
        yield from chan.a.send(IpcMessage("late"))

    r = SimProcess(engine, receiver(), "r").start()
    s = SimProcess(engine, sender(), "s").start()
    run_until_done(engine, [s, r])
    assert got == [500.0]


def test_send_blocks_when_full(engine):
    chan = IpcChannel(engine, capacity=1)
    events = []

    def sender():
        yield from chan.a.send(IpcMessage("one"))
        events.append(("sent-one", engine.now))
        yield from chan.a.send(IpcMessage("two"))
        events.append(("sent-two", engine.now))

    def receiver():
        yield Compute(100.0)
        msg1 = yield from chan.b.recv()
        yield Compute(100.0)
        msg2 = yield from chan.b.recv()
        return (msg1.kind, msg2.kind)

    s = SimProcess(engine, sender(), "s").start()
    r = SimProcess(engine, receiver(), "r").start()
    run_until_done(engine, [s, r])
    times = dict(events)
    assert times["sent-one"] == 0.0
    # The second send had to wait for the first recv to free a slot.
    assert times["sent-two"] == 100.0
    assert r.result == ("one", "two")


def test_try_send_and_try_recv(engine):
    chan = IpcChannel(engine, capacity=1)
    assert chan.a.try_recv() is None
    assert chan.a.try_send(IpcMessage("x")) is True
    assert chan.a.try_send(IpcMessage("y")) is False  # full
    msg = chan.b.try_recv()
    assert msg.kind == "x"
    assert chan.a.try_send(IpcMessage("y")) is True


def test_fifo_ordering(engine):
    chan = IpcChannel(engine, capacity=16)
    for i in range(5):
        assert chan.a.try_send(IpcMessage(f"m{i}"))
    kinds = [chan.b.try_recv().kind for __ in range(5)]
    assert kinds == ["m0", "m1", "m2", "m3", "m4"]


def test_duplex_directions_are_independent(engine):
    chan = IpcChannel(engine, capacity=1)
    assert chan.a.try_send(IpcMessage("a2b"))
    assert chan.b.try_send(IpcMessage("b2a"))
    assert chan.a.try_recv().kind == "b2a"
    assert chan.b.try_recv().kind == "a2b"


def test_fd_passing_installs_descriptor(engine):
    chan = IpcChannel(engine, capacity=4)
    table = FdTable(limit=16, owner="worker")
    desc = FileDescription(object(), kind="socket")
    desc.incref()  # the supervisor's own reference
    chan.a.try_send(IpcMessage("fd", fd=FdPayload(desc)))
    msg = chan.b.try_recv()
    fd = receive_fd(msg, table)
    assert table.get(fd) is desc
    assert desc.refs == 2  # supervisor + worker


def test_fd_in_flight_keeps_description_alive(engine):
    closed = []

    class Sock:
        def on_last_close(self):
            closed.append(True)

    desc = FileDescription(Sock(), kind="socket")
    desc.incref()
    chan = IpcChannel(engine, capacity=4)
    chan.a.try_send(IpcMessage("fd", fd=FdPayload(desc)))
    desc.decref()  # sender closes its copy while the message is in flight
    assert closed == []  # queue reference keeps it open
    msg = chan.b.try_recv()
    table = FdTable(limit=4, owner="w")
    fd = receive_fd(msg, table)
    assert closed == []
    table.close(fd)
    assert closed == [True]


def test_readable_protocol_for_poller(engine):
    chan = IpcChannel(engine, capacity=4)
    assert not chan.b.readable()
    chan.a.try_send(IpcMessage("x"))
    assert chan.b.readable()


def test_blocking_send_deadlock_scenario(engine):
    """The §6 deadlock: the supervisor blocks sending a new connection to a
    worker whose buffer is full, while that worker blocks waiting for an fd
    response the supervisor will never produce."""
    conn_chan = IpcChannel(engine, capacity=1, name="conns")   # sup -> worker
    req_chan = IpcChannel(engine, capacity=4, name="reqs")     # worker <-> sup
    progress = []

    def supervisor():
        # Fill the worker's connection buffer, then block on one more.
        yield from conn_chan.a.send(IpcMessage("new-conn", payload=1))
        yield from conn_chan.a.send(IpcMessage("new-conn", payload=2))
        yield from conn_chan.a.send(IpcMessage("new-conn", payload=3))
        progress.append("supervisor-sent-3")  # never reached
        # Would serve fd requests here.
        msg = yield from req_chan.b.recv()
        yield from req_chan.b.send(IpcMessage("fd-resp"))

    def worker():
        yield from conn_chan.b.recv()     # take conn 1, start processing it
        yield Compute(10.0, "process")
        # Request an fd and block for the response (without draining
        # conn_chan — OpenSER's mistake).
        yield from req_chan.a.send(IpcMessage("fd-req"))
        resp = yield from req_chan.a.recv()
        progress.append("worker-got-fd")  # never reached

    sup = SimProcess(engine, supervisor(), "sup").start()
    wrk = SimProcess(engine, worker(), "wrk").start()
    engine.run(until=1_000_000.0)
    assert progress == []
    assert sup.alive and wrk.alive
    assert conn_chan.a.blocked_sending_since is not None
    assert req_chan.a.blocked_receiving_since is not None


def test_capacity_must_be_positive(engine):
    with pytest.raises(ValueError):
        IpcChannel(engine, capacity=0)


# ----------------------------------------------------------------------
# blocked-marker hygiene (the deadlock detector's input)
# ----------------------------------------------------------------------
def test_try_send_clears_stale_blocked_marker(engine):
    chan = IpcChannel(engine, capacity=1)
    chan.a.blocked_sending_since = 10.0  # left by an earlier blocking send
    assert chan.a.try_send(IpcMessage("m"))
    assert chan.a.blocked_sending_since is None


def test_try_recv_clears_stale_blocked_marker(engine):
    chan = IpcChannel(engine, capacity=1)
    assert chan.a.try_send(IpcMessage("m"))
    chan.b.blocked_receiving_since = 10.0
    assert chan.b.try_recv().kind == "m"
    assert chan.b.blocked_receiving_since is None


def test_failed_try_ops_leave_markers_alone(engine):
    """An unsuccessful non-blocking op proves nothing about wedging."""
    chan = IpcChannel(engine, capacity=1)
    chan.b.blocked_receiving_since = 10.0
    assert chan.b.try_recv() is None
    assert chan.b.blocked_receiving_since == 10.0
    assert chan.a.try_send(IpcMessage("fill"))
    chan.a.blocked_sending_since = 20.0
    assert not chan.a.try_send(IpcMessage("overflow"))
    assert chan.a.blocked_sending_since == 20.0


def test_blocking_ops_clear_markers_on_completion(engine):
    chan = IpcChannel(engine, capacity=1)

    def sender():
        yield from chan.a.send(IpcMessage("one"))
        yield from chan.a.send(IpcMessage("two"))  # blocks until recv

    def receiver():
        yield Compute(500.0)
        yield from chan.b.recv()
        yield from chan.b.recv()

    s = SimProcess(engine, sender(), "s").start()
    r = SimProcess(engine, receiver(), "r").start()
    engine.run(until=250.0)
    assert chan.a.blocked_sending_since is not None  # mid-block
    run_until_done(engine, [s, r])
    assert chan.a.blocked_sending_since is None
    assert chan.b.blocked_receiving_since is None


def test_sender_beaten_to_the_slot_keeps_waiting(engine):
    """One freed slot wakes every blocked sender; the loser enqueues
    nothing and re-blocks, marked from the winner's transfer."""
    chan = IpcChannel(engine, capacity=1)
    assert chan.a.try_send(IpcMessage("fill"))
    sent = []

    def sender(kind):
        yield from chan.a.send(IpcMessage(kind))
        sent.append((kind, engine.now))

    procs = [SimProcess(engine, sender(kind), kind).start()
             for kind in ("x", "y")]
    engine.run(until=50.0)
    assert chan.a.blocked_sending_since == 0.0
    engine.schedule_at(100.0, chan.b.try_recv)
    engine.run(until=150.0)
    assert sent == [("x", 100.0)]
    assert chan.a.blocked_sending_since == 100.0  # y is still blocked
    assert chan.b.pending() == 1  # x only
    engine.schedule_at(200.0, chan.b.try_recv)
    run_until_done(engine, procs)
    assert sent == [("x", 100.0), ("y", 200.0)]
    assert chan.a.blocked_sending_since is None


def test_receivers_woken_together_each_get_one_message(engine):
    chan = IpcChannel(engine, capacity=4)
    got = []

    def receiver(tag):
        msg = yield from chan.b.recv()
        got.append((tag, msg.kind, engine.now))

    procs = [SimProcess(engine, receiver(tag), tag).start()
             for tag in ("r0", "r1")]
    engine.schedule_at(100.0, chan.a.try_send, IpcMessage("m0"))
    engine.schedule_at(200.0, chan.a.try_send, IpcMessage("m1"))
    engine.run(until=150.0)
    assert [kind for __, kind, __ in got] == ["m0"]
    assert chan.b.blocked_receiving_since == 100.0  # the loser re-blocked
    run_until_done(engine, procs)
    assert sorted(kind for __, kind, __ in got) == ["m0", "m1"]
    assert {tag for tag, __, __ in got} == {"r0", "r1"}
    assert got[1][2] == 200.0
    assert chan.b.blocked_receiving_since is None


# ----------------------------------------------------------------------
# drain (worker restart)
# ----------------------------------------------------------------------
def test_drain_discards_messages_and_fd_references(engine):
    chan = IpcChannel(engine, capacity=8)
    table = FdTable(owner="t")
    desc = FileDescription(None, kind="socket")
    fd = table.install(desc)
    assert chan.a.try_send(IpcMessage("take", fd=FdPayload(desc)))
    assert chan.b.try_send(IpcMessage("back"))
    refs_before = desc.refs
    assert chan.drain() == 2
    assert desc.refs == refs_before - 1  # queued SCM ref dropped
    assert chan.pending_total() == 0
    assert chan.a.try_recv() is None and chan.b.try_recv() is None
    table.close(fd)  # the table's own reference still stands


def test_drain_unblocks_a_blocked_sender(engine):
    chan = IpcChannel(engine, capacity=1)
    done = []

    def sender():
        yield from chan.a.send(IpcMessage("one"))
        yield from chan.a.send(IpcMessage("two"))  # blocks: full
        done.append(engine.now)

    s = SimProcess(engine, sender(), "s").start()
    engine.schedule_at(300.0, chan.drain)
    run_until_done(engine, [s])
    assert done == [300.0]
