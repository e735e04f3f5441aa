"""Unit tests for the LAN fabric."""

import pytest

from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from repro.net.fabric import Fabric

from conftest import make_lan


def test_delivery_after_latency_plus_serialization(engine):
    fabric, __ = make_lan(engine, ["a", "b"], latency_us=50.0)
    arrived = []
    fabric.deliver("a", "b", 125, arrived.append, engine)
    engine.run()
    # 125 bytes at 125 B/us = 1us serialization + 50us latency.
    assert engine.now == pytest.approx(51.0)
    assert arrived == [engine]


def test_egress_serialization_queues_packets(engine):
    fabric, __ = make_lan(engine, ["a", "b"], latency_us=0.0)
    times = []
    for __ in range(3):
        fabric.deliver("a", "b", 1250, lambda: times.append(engine.now))
    engine.run()
    # Each 1250B packet takes 10us on the wire; they serialize.
    assert times == [pytest.approx(10.0), pytest.approx(20.0),
                     pytest.approx(30.0)]


def test_different_senders_do_not_serialize(engine):
    fabric, __ = make_lan(engine, ["a", "b", "c"], latency_us=0.0)
    times = []
    fabric.deliver("a", "c", 1250, lambda: times.append(("a", engine.now)))
    fabric.deliver("b", "c", 1250, lambda: times.append(("b", engine.now)))
    engine.run()
    assert dict(times) == {"a": pytest.approx(10.0), "b": pytest.approx(10.0)}


def test_unknown_destination_raises(engine):
    fabric, __ = make_lan(engine, ["a"])
    with pytest.raises(KeyError):
        fabric.deliver("a", "nowhere", 100, lambda: None)


def test_duplicate_machine_name_rejected(engine):
    fabric, machines = make_lan(engine, ["a"])
    with pytest.raises(ValueError):
        fabric.attach(machines["a"])


def test_loss_rate_drops_packets(engine):
    rng = RngStreams(seed=7).stream("net")
    fabric = Fabric(engine, latency_us=0.0, loss_rate=0.5, rng=rng)
    from repro.kernel.machine import Machine
    for name in ("a", "b"):
        fabric.attach(Machine(engine, name))
    delivered = []
    for __ in range(200):
        fabric.deliver("a", "b", 100, delivered.append, 1)
    engine.run()
    assert fabric.packets_lost > 50
    assert len(delivered) == 200 - fabric.packets_lost


def test_statistics(engine):
    fabric, __ = make_lan(engine, ["a", "b"])
    fabric.deliver("a", "b", 100, lambda: None)
    fabric.deliver("a", "b", 200, lambda: None)
    assert fabric.packets_sent == 2
    assert fabric.bytes_sent == 300


def test_lost_packets_still_consume_egress(engine):
    """Loss happens at the switch, after the NIC: a dropped frame still
    serialized, so the next packet departs later and the sent counters
    include it."""
    rng = RngStreams(seed=7).stream("net")
    fabric = Fabric(engine, latency_us=0.0, loss_rate=1.0, rng=rng)
    from repro.kernel.machine import Machine
    for name in ("a", "b"):
        fabric.attach(Machine(engine, name))
    for __ in range(3):
        fabric.deliver("a", "b", 1250, lambda: None)  # 10us each, all lost
    assert fabric.packets_lost == 3
    assert fabric.packets_sent == 3
    assert fabric.bytes_sent == 3750
    fabric.loss_rate = 0.0
    times = []
    fabric.deliver("a", "b", 1250, lambda: times.append(engine.now))
    engine.run()
    # 4th frame queued behind the three lost ones: departs at 40us.
    assert times == [pytest.approx(40.0)]


def test_jitter_never_reorders_a_pair(engine):
    rng = RngStreams(seed=3).stream("net")
    fabric = Fabric(engine, latency_us=50.0, jitter_us=500.0, rng=rng)
    from repro.kernel.machine import Machine
    for name in ("a", "b"):
        fabric.attach(Machine(engine, name))
    arrivals = []
    for i in range(100):
        fabric.deliver("a", "b", 1, lambda i=i: arrivals.append(
            (i, engine.now)))
    engine.run()
    assert [i for i, __ in arrivals] == list(range(100))
    times = [t for __, t in arrivals]
    assert times == sorted(times)


def test_jitter_floor_is_per_pair(engine):
    """One pair's jittered arrival must not delay another pair."""
    rng = RngStreams(seed=3).stream("net")
    fabric = Fabric(engine, latency_us=10.0, rng=rng)
    from repro.kernel.machine import Machine
    for name in ("a", "b", "c"):
        fabric.attach(Machine(engine, name))
    fabric.jitter_us = 10_000.0
    fabric.deliver("a", "b", 1, lambda: None)  # raises a->b floor only
    fabric.jitter_us = 0.0
    times = []
    fabric.deliver("a", "c", 1, lambda: times.append(engine.now))
    engine.run()
    assert times[0] < 100.0

