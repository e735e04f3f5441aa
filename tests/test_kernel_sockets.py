"""Unit tests for socket buffers and port allocation."""

import pytest

from repro.sim.engine import Engine
from repro.kernel.sockets import (
    DatagramBuffer,
    PortAllocator,
    PortExhaustedError,
    StreamBuffer,
)


class TestDatagramBuffer:
    def test_push_pop_fifo(self, engine):
        buf = DatagramBuffer(engine, capacity=4)
        buf.push("a")
        buf.push("b")
        assert buf.pop() == "a"
        assert buf.pop() == "b"

    def test_overflow_drops(self, engine):
        buf = DatagramBuffer(engine, capacity=2)
        assert buf.push(1)
        assert buf.push(2)
        assert not buf.push(3)
        assert buf.drops == 1
        assert len(buf) == 2

    def test_readable_signal_fires_on_push(self, engine):
        buf = DatagramBuffer(engine, capacity=4)
        woken = []
        buf.readable_signal.subscribe(woken.append)
        buf.push("x")
        engine.run()
        assert len(woken) == 1

    def test_pop_empty_raises(self, engine):
        buf = DatagramBuffer(engine, capacity=4)
        with pytest.raises(IndexError):
            buf.pop()


class TestStreamBuffer:
    def test_bytes_flow_in_order(self, engine):
        buf = StreamBuffer(engine, capacity_bytes=100)
        buf.push("hello ")
        buf.push("world")
        assert buf.read() == "hello world"
        assert buf.size == 0

    def test_partial_read_splits_chunks(self, engine):
        buf = StreamBuffer(engine, capacity_bytes=100)
        buf.push("abcdef")
        assert buf.read(4) == "abcd"
        assert buf.read(4) == "ef"

    def test_space_and_overrun(self, engine):
        buf = StreamBuffer(engine, capacity_bytes=10)
        buf.push("12345")
        assert buf.space() == 5
        with pytest.raises(BufferError):
            buf.push("6789012345")

    def test_read_frees_space_and_fires_writable(self, engine):
        buf = StreamBuffer(engine, capacity_bytes=10)
        woken = []
        buf.push("1234567890")
        buf.writable_signal.subscribe(woken.append)
        buf.read(4)
        engine.run()
        assert buf.space() == 4
        assert len(woken) == 1

    def test_eof_makes_empty_buffer_readable(self, engine):
        buf = StreamBuffer(engine, capacity_bytes=10)
        assert not buf.readable()
        buf.push_eof()
        assert buf.readable()
        assert buf.read() == ""
        assert buf.eof


class TestPortAllocator:
    def test_allocate_unique_ports(self, engine):
        ports = PortAllocator(engine, lo=100, hi=110, time_wait_us=0)
        allocated = {ports.allocate() for __ in range(10)}
        assert len(allocated) == 10
        assert all(100 <= p < 110 for p in allocated)

    def test_exhaustion_raises(self, engine):
        ports = PortAllocator(engine, lo=100, hi=102, time_wait_us=0)
        ports.allocate()
        ports.allocate()
        with pytest.raises(PortExhaustedError):
            ports.allocate()
        assert ports.exhaustions == 1

    def test_release_without_time_wait_is_immediate(self, engine):
        ports = PortAllocator(engine, lo=100, hi=101, time_wait_us=1000.0)
        port = ports.allocate()
        ports.release(port, time_wait=False)
        assert ports.allocate() == port

    def test_time_wait_holds_port(self, engine):
        ports = PortAllocator(engine, lo=100, hi=101, time_wait_us=1000.0)
        port = ports.allocate()
        ports.release(port)
        assert len(ports._time_wait) == 1
        with pytest.raises(PortExhaustedError):
            ports.allocate()
        engine.run(until=2000.0)
        assert len(ports._time_wait) == 0
        assert ports.allocate() == port

    def test_release_unallocated_raises(self, engine):
        ports = PortAllocator(engine, lo=100, hi=110, time_wait_us=0)
        with pytest.raises(ValueError):
            ports.release(105)

    def test_empty_range_rejected(self, engine):
        with pytest.raises(ValueError):
            PortAllocator(engine, lo=100, hi=100)
