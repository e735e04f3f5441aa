"""Unit tests for the TCP transport."""

import gc

import pytest

from repro.sim.engine import Engine
from repro.sim.process import SimProcess
from repro.kernel.sockets import PortExhaustedError
from repro.sim.primitives import Sleep, Wait
from repro.net.tcp import (
    ConnectionRefusedError_,
    ConnectionResetError_,
    TcpConn,
    TcpListener,
    TcpState,
    connect,
)

from conftest import make_lan, run_until_done


def lan(engine, **kwargs):
    return make_lan(engine, ["client", "server"], **kwargs)


def test_connect_accept_roundtrip(engine):
    __, machines = lan(engine, latency_us=50.0)
    listener = TcpListener(machines["server"], 5060)
    results = {}

    def client():
        conn = yield from connect(machines["client"], "server", 5060)
        results["client_conn"] = conn
        results["connected_at"] = engine.now

    def server():
        conn = yield from listener.accept()
        results["server_conn"] = conn

    procs = [machines["client"].spawn_light(client(), "c").start(),
             machines["server"].spawn_light(server(), "s").start()]
    run_until_done(engine, procs)
    assert results["client_conn"].state is TcpState.ESTABLISHED
    assert results["server_conn"].peer is results["client_conn"]
    # Handshake needs a round trip (~100us at 50us one-way).
    assert results["connected_at"] >= 100.0


def test_bytestream_send_recv(engine):
    __, machines = lan(engine)
    listener = TcpListener(machines["server"], 5060)
    got = []

    def client():
        conn = yield from connect(machines["client"], "server", 5060)
        yield from conn.send("hello ")
        yield from conn.send("world")

    def server():
        conn = yield from listener.accept()
        data = ""
        while len(data) < 11:
            data += yield from conn.recv()
        got.append(data)

    procs = [machines["client"].spawn_light(client(), "c").start(),
             machines["server"].spawn_light(server(), "s").start()]
    run_until_done(engine, procs)
    assert got == ["hello world"]


def test_large_send_is_segmented_but_in_order(engine):
    __, machines = lan(engine)
    listener = TcpListener(machines["server"], 5060)
    payload = "x" * 5000 + "END"
    got = []

    def client():
        conn = yield from connect(machines["client"], "server", 5060)
        yield from conn.send(payload)

    def server():
        conn = yield from listener.accept()
        data = ""
        while len(data) < len(payload):
            data += yield from conn.recv()
        got.append(data)

    procs = [machines["client"].spawn_light(client(), "c").start(),
             machines["server"].spawn_light(server(), "s").start()]
    run_until_done(engine, procs)
    assert got == [payload]


def test_connect_refused_without_listener(engine):
    __, machines = lan(engine)
    errors = []

    def client():
        try:
            yield from connect(machines["client"], "server", 5060)
        except ConnectionRefusedError_ as exc:
            errors.append(exc)

    proc = machines["client"].spawn_light(client(), "c").start()
    run_until_done(engine, [proc])
    assert len(errors) == 1
    # The ephemeral port went straight back to the pool.
    ports = machines["client"].tcp_ports
    assert not ports._in_use and not ports._time_wait


def test_backlog_full_refuses(engine):
    __, machines = lan(engine)
    TcpListener(machines["server"], 5060, backlog=1)
    outcomes = []

    def client(tag):
        try:
            yield from connect(machines["client"], "server", 5060)
            outcomes.append((tag, "ok"))
        except ConnectionRefusedError_:
            outcomes.append((tag, "refused"))

    procs = [machines["client"].spawn_light(client(i), f"c{i}").start()
             for i in range(3)]
    run_until_done(engine, procs)
    counts = [outcome for __, outcome in outcomes]
    assert counts.count("ok") == 1
    assert counts.count("refused") == 2


def test_flow_control_blocks_sender(engine):
    __, machines = lan(engine)
    listener = TcpListener(machines["server"], 5060)
    events = []

    def client():
        conn = yield from connect(machines["client"], "server", 5060)
        yield from conn.send("a" * 60000)
        events.append(("sent-first", engine.now))
        yield from conn.send("b" * 30000)  # must wait for reader
        events.append(("sent-second", engine.now))

    def server():
        conn = yield from listener.accept()
        # Let the first send land, then drain slowly.
        from repro.sim.primitives import Sleep
        yield Sleep(10_000.0)
        drained = 0
        while drained < 90000:
            data = yield from conn.recv()
            drained += len(data)

    procs = [machines["client"].spawn_light(client(), "c").start(),
             machines["server"].spawn_light(server(), "s").start()]
    run_until_done(engine, procs)
    times = dict(events)
    assert times["sent-second"] >= 10_000.0  # blocked until the drain began


def test_blocked_sender_is_woken_by_the_read_that_frees_space(engine):
    """The writable signal exists only once a sender blocked on it, and the
    reader's ``read()`` fires it: the sender ships at the drain's instant."""
    __, machines = lan(engine)
    listener = TcpListener(machines["server"], 5060)
    state = {}

    def client():
        conn = yield from connect(machines["client"], "server", 5060)
        yield from conn.send("a" * 60000)
        state["built_before_block"] = (
            conn.peer.recv_buffer._writable_signal is not None)
        yield from conn.send("b" * 30000)  # window full: blocks
        state["sent"] = engine.now

    def server():
        conn = yield from listener.accept()
        yield Sleep(10_000.0)
        state["drained"] = engine.now
        data = ""
        while len(data) < 90000:
            data += yield from conn.recv()
        state["data"] = data

    procs = [machines["client"].spawn_light(client(), "c").start(),
             machines["server"].spawn_light(server(), "s").start()]
    run_until_done(engine, procs)
    assert state["built_before_block"] is False
    assert state["sent"] == state["drained"]
    assert state["data"] == "a" * 60000 + "b" * 30000


def test_flow_controlled_send_ships_each_byte_once(engine):
    """A send woken by every drain retries until the whole run fits; the
    retries must not ship a partial or a second copy."""
    __, machines = lan(engine)
    listener = TcpListener(machines["server"], 5060)
    state = {}

    def client():
        conn = yield from connect(machines["client"], "server", 5060)
        state["client"] = conn
        state["lengths"] = [(yield from conn.send("a" * 60000)),
                            (yield from conn.send("b" * 30000))]

    def server():
        conn = yield from listener.accept()
        yield Sleep(10_000.0)
        data = ""
        while len(data) < 90000:
            chunk = conn.try_recv(10000)  # many small drains
            if chunk is None:
                yield Wait(conn.readable_signal)
            else:
                data += chunk
        state["data"] = data

    procs = [machines["client"].spawn_light(client(), "c").start(),
             machines["server"].spawn_light(server(), "s").start()]
    run_until_done(engine, procs)
    engine.run(until=engine.now + 1000.0)
    assert state["lengths"] == [60000, 30000]
    assert state["data"] == "a" * 60000 + "b" * 30000
    assert state["client"].bytes_sent == 90000
    assert state["client"].in_flight == 0
    assert state["client"].peer.bytes_received == 90000


def test_close_while_blocked_in_send_raises(engine):
    __, machines = lan(engine)
    listener = TcpListener(machines["server"], 5060)
    state = {"errors": []}

    def client():
        conn = yield from connect(machines["client"], "server", 5060)
        state["client"] = conn
        yield from conn.send("a" * 60000)
        try:
            yield from conn.send("b" * 30000)  # blocks: window is full
        except ConnectionResetError_ as exc:
            state["errors"].append((engine.now, exc))

    def closer():
        yield Sleep(5_000.0)
        state["client"].close()

    def server():
        conn = yield from listener.accept()
        yield Sleep(10_000.0)
        yield from conn.recv()  # frees the window, waking the sender

    procs = [machines["client"].spawn_light(client(), "c").start(),
             machines["client"].spawn_light(closer(), "x").start(),
             machines["server"].spawn_light(server(), "s").start()]
    run_until_done(engine, procs)
    ((when, __),) = state["errors"]
    assert when >= 10_000.0
    assert state["client"].bytes_sent == 60000


def test_acceptors_woken_together_each_get_one_connection(engine):
    """Every blocked acceptor wakes on a SYN; the one that loses the race
    goes back to waiting instead of returning nothing."""
    __, machines = lan(engine)
    listener = TcpListener(machines["server"], 5060)
    accepted = []

    def acceptor(tag):
        conn = yield from listener.accept()
        accepted.append((tag, conn, engine.now))

    def client(delay):
        yield Sleep(delay)
        yield from connect(machines["client"], "server", 5060)

    procs = [machines["server"].spawn_light(acceptor(i), f"a{i}").start()
             for i in range(2)]
    procs += [machines["client"].spawn_light(client(d), f"c{d}").start()
              for d in (0.0, 1_000.0)]
    run_until_done(engine, procs)
    assert [conn is None for __, conn, __ in accepted] == [False, False]
    assert accepted[0][1] is not accepted[1][1]
    assert accepted[1][2] >= 1_000.0  # the loser waited for the second SYN
    assert listener.accepted == 2


def test_try_recv_returns_at_most_max_bytes(engine):
    __, machines = lan(engine)
    listener = TcpListener(machines["server"], 5060)
    got = []

    def client():
        conn = yield from connect(machines["client"], "server", 5060)
        yield from conn.send("abcdefghij")

    def server():
        conn = yield from listener.accept()
        while not conn.readable():
            yield Wait(conn.readable_signal)
        got.append(conn.try_recv(4))
        got.append(conn.try_recv(4))
        got.append(conn.try_recv())

    procs = [machines["client"].spawn_light(client(), "c").start(),
             machines["server"].spawn_light(server(), "s").start()]
    run_until_done(engine, procs)
    assert got == ["abcd", "efgh", "ij"]


def test_close_delivers_eof(engine):
    __, machines = lan(engine)
    listener = TcpListener(machines["server"], 5060)
    got = []

    def client():
        conn = yield from connect(machines["client"], "server", 5060)
        yield from conn.send("bye")
        conn.close()

    def server():
        conn = yield from listener.accept()
        data = yield from conn.recv()
        got.append(data)
        eof = yield from conn.recv()
        got.append(eof)
        conn.close()

    procs = [machines["client"].spawn_light(client(), "c").start(),
             machines["server"].spawn_light(server(), "s").start()]
    run_until_done(engine, procs)
    assert got == ["bye", ""]


def test_half_closed_pair_dies_by_reference_count(engine):
    """After the FIN has arrived, the two ends of a connection no longer
    refer to each other in a ring: once both applications let go (a
    phone's abandoned connection the proxy closed), reference counting
    frees the pair, with the cyclic collector paused as during a cell."""
    __, machines = lan(engine)
    listener = TcpListener(machines["server"], 5060)
    conns = {}

    def client():
        conns["client"] = yield from connect(machines["client"], "server",
                                             5060)

    def server():
        conns["server"] = yield from listener.accept()

    procs = [machines["client"].spawn_light(client(), "c").start(),
             machines["server"].spawn_light(server(), "s").start()]
    run_until_done(engine, procs)
    conns["server"].close()
    engine.run()
    assert conns["client"].state is TcpState.CLOSE_WAIT
    assert conns["server"].state is TcpState.FIN_SENT
    assert conns["client"].open_for_send  # half-closed: may still send
    collecting = gc.isenabled()
    gc.disable()
    try:
        conns.clear()
        assert not [obj for obj in gc.get_objects()
                    if type(obj) is TcpConn and obj.engine is engine]
    finally:
        if collecting:
            gc.enable()


def test_both_sides_closed_finalizes_and_time_waits_port(engine):
    __, machines = lan(engine)
    listener = TcpListener(machines["server"], 5060)
    conns = {}

    def client():
        conn = yield from connect(machines["client"], "server", 5060)
        conns["client"] = conn
        conn.close()  # active closer

    def server():
        conn = yield from listener.accept()
        conns["server"] = conn
        eof = yield from conn.recv()
        assert eof == ""
        conn.close()

    procs = [machines["client"].spawn_light(client(), "c").start(),
             machines["server"].spawn_light(server(), "s").start()]
    run_until_done(engine, procs)
    engine.run(until=engine.now + 1000.0)
    assert conns["client"].state is TcpState.CLOSED
    assert conns["server"].state is TcpState.CLOSED
    # The client initiated and closed first: its port sits in TIME_WAIT.
    ports = machines["client"].tcp_ports
    assert len(ports._time_wait) == 1


def test_passive_closer_port_released_immediately(engine):
    __, machines = lan(engine)
    listener = TcpListener(machines["server"], 5060)

    def client():
        conn = yield from connect(machines["client"], "server", 5060)
        eof = yield from conn.recv()
        assert eof == ""
        conn.close()

    def server():
        conn = yield from listener.accept()
        conn.close()  # server closes first

    procs = [machines["client"].spawn_light(client(), "c").start(),
             machines["server"].spawn_light(server(), "s").start()]
    run_until_done(engine, procs)
    engine.run(until=engine.now + 1000.0)
    ports = machines["client"].tcp_ports
    assert not ports._in_use and not ports._time_wait


def test_port_exhaustion(engine):
    __, machines = make_lan(engine, ["client", "server"],
                            ephemeral_ports=2)
    TcpListener(machines["server"], 5060)
    failures = []

    def client():
        conns = []
        for __ in range(3):
            try:
                conn = yield from connect(machines["client"], "server", 5060)
                conns.append(conn)
            except PortExhaustedError as exc:
                failures.append(exc)

    proc = machines["client"].spawn_light(client(), "c").start()
    run_until_done(engine, [proc])
    assert len(failures) == 1


def test_send_on_closed_connection_raises(engine):
    __, machines = lan(engine)
    listener = TcpListener(machines["server"], 5060)
    errors = []

    def client():
        conn = yield from connect(machines["client"], "server", 5060)
        conn.close()
        try:
            yield from conn.send("too late")
        except ConnectionResetError_ as exc:
            errors.append(exc)

    def server():
        conn = yield from listener.accept()
        yield from conn.recv()

    procs = [machines["client"].spawn_light(client(), "c").start(),
             machines["server"].spawn_light(server(), "s").start()]
    run_until_done(engine, procs)
    assert len(errors) == 1


def test_fd_refcount_drives_close(engine):
    """Supervisor and worker both hold fds; the connection FINs only when
    the last one closes — the paper's two-step teardown (§3.1)."""
    from repro.kernel.fdtable import FdTable, FileDescription
    __, machines = lan(engine)
    listener = TcpListener(machines["server"], 5060)
    state = {}

    def client():
        conn = yield from connect(machines["client"], "server", 5060)
        state["client"] = conn

    def server():
        conn = yield from listener.accept()
        state["server"] = conn

    procs = [machines["client"].spawn_light(client(), "c").start(),
             machines["server"].spawn_light(server(), "s").start()]
    run_until_done(engine, procs)

    conn = state["server"]
    desc = FileDescription(conn, kind="tcp")
    sup_table = FdTable(limit=16, owner="sup")
    wrk_table = FdTable(limit=16, owner="wrk")
    sup_fd = sup_table.install(desc)
    wrk_fd = wrk_table.install(desc)

    wrk_table.close(wrk_fd)
    assert not conn.sent_fin
    sup_table.close(sup_fd)
    assert conn.sent_fin
    engine.run(until=engine.now + 1000.0)
    assert state["client"].received_fin


def test_listener_double_bind_rejected(engine):
    __, machines = lan(engine)
    TcpListener(machines["server"], 5060)
    with pytest.raises(OSError):
        TcpListener(machines["server"], 5060)
