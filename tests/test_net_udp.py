"""Unit tests for the UDP transport."""

import pytest

from repro.sim.engine import Engine
from repro.sim.process import SimProcess
from repro.net.udp import UdpEndpoint

from conftest import make_lan, run_until_done


def test_sendto_delivers_whole_datagram(engine):
    __, machines = make_lan(engine, ["client", "server"])
    server_sock = UdpEndpoint(machines["server"], 5060)
    client_sock = UdpEndpoint(machines["client"], 40000)
    got = []

    def receiver():
        dgram = yield from server_sock.recvfrom()
        got.append(dgram)

    proc = machines["server"].spawn_light(receiver(), "rx").start()
    client_sock.sendto("INVITE sip:bob@example.com SIP/2.0", "server", 5060)
    run_until_done(engine, [proc])
    assert got[0].payload.startswith("INVITE")
    assert got[0].source == ("client", 40000)


def test_multiple_receivers_each_get_one_datagram(engine):
    """OpenSER's symmetric UDP workers all block in recvfrom on the same
    socket; each datagram goes to exactly one of them."""
    __, machines = make_lan(engine, ["client", "server"])
    server_sock = UdpEndpoint(machines["server"], 5060)
    client_sock = UdpEndpoint(machines["client"], 40000)
    got = []

    def worker(tag):
        dgram = yield from server_sock.recvfrom()
        got.append((tag, dgram.payload))

    procs = [machines["server"].spawn_light(worker(i), f"w{i}").start()
             for i in range(3)]
    for i in range(3):
        client_sock.sendto(f"msg-{i}", "server", 5060)
    run_until_done(engine, procs)
    payloads = sorted(payload for __, payload in got)
    assert payloads == ["msg-0", "msg-1", "msg-2"]
    tags = {tag for tag, __ in got}
    assert len(tags) == 3  # each worker consumed exactly one


def test_unbound_port_swallows_datagram(engine):
    __, machines = make_lan(engine, ["client", "server"])
    client_sock = UdpEndpoint(machines["client"], 40000)
    client_sock.sendto("hello", "server", 9999)
    engine.run()  # no error: ICMP unreachable is ignored


def test_buffer_overflow_drops(engine):
    __, machines = make_lan(engine, ["client", "server"])
    server_sock = UdpEndpoint(machines["server"], 5060, rcvbuf_datagrams=2)
    client_sock = UdpEndpoint(machines["client"], 40000)
    for i in range(5):
        client_sock.sendto(f"m{i}", "server", 5060)
    engine.run()
    assert server_sock.drops == 3
    assert len(server_sock.buffer) == 2


def test_double_bind_rejected(engine):
    __, machines = make_lan(engine, ["server"])
    UdpEndpoint(machines["server"], 5060)
    with pytest.raises(OSError):
        UdpEndpoint(machines["server"], 5060)


def test_try_recvfrom_nonblocking(engine):
    __, machines = make_lan(engine, ["client", "server"])
    server_sock = UdpEndpoint(machines["server"], 5060)
    assert server_sock.try_recvfrom() is None
    UdpEndpoint(machines["client"], 40000).sendto("x", "server", 5060)
    engine.run()
    assert server_sock.try_recvfrom().payload == "x"


def test_blocking_and_nonblocking_receives_count_alike(engine):
    __, machines = make_lan(engine, ["client", "server"])
    server_sock = UdpEndpoint(machines["server"], 5060)
    client_sock = UdpEndpoint(machines["client"], 40000)
    got = []

    def receiver():
        got.append((yield from server_sock.recvfrom()).payload)

    proc = machines["server"].spawn_light(receiver(), "rx").start()
    for payload in ("first", "second"):
        client_sock.sendto(payload, "server", 5060)
    run_until_done(engine, [proc])
    engine.run()
    got.append(server_sock.try_recvfrom().payload)
    assert got == ["first", "second"]
    assert server_sock.received == 2
    assert server_sock.try_recvfrom() is None
    assert server_sock.received == 2


def test_close_unbinds(engine):
    __, machines = make_lan(engine, ["server"])
    sock = UdpEndpoint(machines["server"], 5060)
    sock.close()
    UdpEndpoint(machines["server"], 5060)  # rebind succeeds
