"""Unit tests for the LAN fabric."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import Engine

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


def test_one_sender_serializes_across_destinations(engine):
    """Egress is per source, not per pair: frames to two destinations
    queue behind each other on the sender's one NIC."""
    fabric, __ = make_lan(engine, ["a", "b", "c"], latency_us=0.0)
    times = []
    fabric.deliver("a", "b", 1250, lambda: times.append(("b", engine.now)))
    fabric.deliver("a", "c", 1250, lambda: times.append(("c", engine.now)))
    engine.run()
    assert dict(times) == {"b": pytest.approx(10.0), "c": pytest.approx(20.0)}


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


def test_statistics(engine):
    fabric, __ = make_lan(engine, ["a", "b"])
    fabric.deliver("a", "b", 100, lambda: None)
    fabric.deliver("a", "b", 200, lambda: None)
    assert fabric.packets_sent == 2
    assert fabric.bytes_sent == 300


def test_a_queued_frame_departs_behind_earlier_ones(engine):
    """Egress is a FIFO: a frame sent while three are still serializing
    departs after them, and the counters include every frame."""
    fabric, __ = make_lan(engine, ["a", "b"], latency_us=0.0)
    for __ in range(3):
        fabric.deliver("a", "b", 1250, lambda: None)  # 10us each
    times = []
    fabric.deliver("a", "b", 1250, lambda: times.append(engine.now))
    assert fabric.packets_sent == 4
    assert fabric.bytes_sent == 5000
    assert fabric.packets_lost == 0
    engine.run()
    assert times == [pytest.approx(40.0)]


frames = st.lists(
    st.tuples(st.sampled_from(["a", "b"]),              # source
              st.sampled_from(["a", "b", "c"]),         # destination
              st.integers(min_value=1, max_value=9000),  # size, bytes
              st.floats(min_value=0.0, max_value=500.0)),  # send time, us
    max_size=60)


@settings(max_examples=200, deadline=None)
@given(frames)
def test_every_pair_stays_fifo(sent):
    """Without any per-pair state, each (src, dst) pair's frames arrive in
    send order and at non-decreasing times: a source's departures never
    decrease and the latency is constant.  TCP bytestreams, SCTP ordered
    streams and the proxy's in-order reads rest on this."""
    engine = Engine()
    fabric, __ = make_lan(engine, ["a", "b", "c"], latency_us=50.0)
    arrivals = {}   # (src, dst) -> [(send index, arrival time)]

    def send(index, src, dst, size):
        fabric.deliver(src, dst, size, lambda: arrivals.setdefault(
            (src, dst), []).append((index, engine.now)))

    sent_order = {}
    for index, (src, dst, size, at) in sorted(
            enumerate(sent), key=lambda item: item[1][3]):
        sent_order.setdefault((src, dst), []).append(index)
        engine.schedule_at(at, send, index, src, dst, size)
    engine.run()
    assert fabric.packets_sent == len(sent)
    assert {pair: [index for index, __ in got]
            for pair, got in arrivals.items()} == sent_order
    for got in arrivals.values():
        times = [t for __, t in got]
        assert times == sorted(times)
