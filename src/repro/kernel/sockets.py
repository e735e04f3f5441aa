"""Socket buffers and port allocation.

- :class:`DatagramBuffer` — a UDP-style receive queue: bounded in
  datagrams, silently dropping on overflow (the kernel's behaviour that
  forces SIP-level retransmission under overload).
- :class:`StreamBuffer` — a TCP-style byte buffer with flow control:
  writers must check :meth:`StreamBuffer.space` and wait on
  ``writable_signal``.
- :class:`PortAllocator` — ephemeral port pool with TIME_WAIT holding,
  reproducing the §4.3 port-starvation effect when idle connections are
  kept open too long under churn.
"""

import collections
import sys
from typing import Deque, List, Optional, Set

from repro.sim.events import Signal


class PortExhaustedError(OSError):
    """No ephemeral ports available (EADDRNOTAVAIL)."""


class DatagramBuffer:
    """Bounded datagram receive queue (drops on overflow)."""

    def __init__(self, engine, capacity: int = 256, name: str = "dgram") -> None:
        self.engine = engine
        self.name = name
        self.capacity = capacity
        self.queue: Deque = collections.deque()
        self.readable_signal = Signal(engine, name=f"{name}.readable")
        self.drops = 0
        self.delivered = 0

    def push(self, datagram) -> bool:
        """Deliver a datagram; returns False (dropped) when full."""
        if len(self.queue) >= self.capacity:
            self.drops += 1
            return False
        self.queue.append(datagram)
        self.delivered += 1
        self.readable_signal.fire()
        return True

    def readable(self) -> bool:
        return bool(self.queue)

    def pop(self):
        if not self.queue:
            raise IndexError(f"{self.name}: empty datagram buffer")
        return self.queue.popleft()

    def __len__(self) -> int:
        return len(self.queue)


#: suffix of a stream buffer's readable-signal name
_READABLE = ".readable"


class StreamBuffer:
    """Bounded byte buffer carrying real payload text (TCP receive side).

    TCP is not message-based: the reader gets raw byte runs and must do
    its own framing (the SIP layer frames on ``Content-Length``).
    """

    __slots__ = ("engine", "capacity", "_chunks", "_size", "readable_signal",
                 "_writable_signal", "eof", "total_bytes", "consumed")

    def __init__(self, engine, capacity_bytes: int = 65536,
                 name: str = "stream") -> None:
        self.engine = engine
        self.capacity = capacity_bytes
        #: pushed runs not yet read; a plain list (an empty deque is
        #: 760 B, and most of a churn cell's buffers are empty)
        self._chunks: List[str] = []
        self._size = 0
        #: interned: buffers of one kind (every TCP receive buffer) share
        #: their signal's name instead of formatting one each
        self.readable_signal = Signal(engine,
                                      name=sys.intern(name + _READABLE))
        #: built by the first flow-controlled sender (:attr:`writable_signal`)
        self._writable_signal: Optional[Signal] = None
        self.eof = False
        self.total_bytes = 0
        #: bytes handed to readers — with :attr:`total_bytes` this gives
        #: the stream offsets the causal tracer's socket-queue markers
        #: are keyed to (delivered vs consumed)
        self.consumed = 0

    @property
    def name(self) -> str:
        """Built on demand from the readable signal's name, so a buffer
        holds no string of its own."""
        return self.readable_signal.name[:-len(_READABLE)]

    @property
    def writable_signal(self) -> Signal:
        """Fires when a read frees space.  Built on first access: only a
        flow-controlled sender waits on it, and most buffers never fill."""
        signal = self._writable_signal
        if signal is None:
            signal = self._writable_signal = Signal(
                self.engine, name=f"{self.name}.writable")
        return signal

    @property
    def size(self) -> int:
        return self._size

    def space(self) -> int:
        return max(0, self.capacity - self._size)

    def push(self, data: str) -> None:
        """Append payload bytes; caller must have checked :meth:`space`."""
        if not data:
            return
        if len(data) > self.space():
            raise BufferError(f"{self.name}: overrun ({len(data)} > {self.space()})")
        self._chunks.append(data)
        self._size += len(data)
        self.total_bytes += len(data)
        self.readable_signal.fire()

    def push_eof(self) -> None:
        """Peer closed its side (FIN): readers see EOF after draining."""
        self.eof = True
        self.readable_signal.fire()

    def readable(self) -> bool:
        return self._size > 0 or self.eof

    def read(self, max_bytes: int = 1 << 30) -> str:
        """Take up to ``max_bytes`` from the front (may split chunks)."""
        chunks = self._chunks
        if not chunks or max_bytes <= 0:
            return ""
        data = "".join(chunks)
        chunks.clear()
        if len(data) > max_bytes:
            chunks.append(data[max_bytes:])
            data = data[:max_bytes]
        taken = len(data)
        self._size -= taken
        self.consumed += taken
        if self._writable_signal is not None:  # no sender ever waited
            self._writable_signal.fire()
        return data


class PortAllocator:
    """Ephemeral port pool with TIME_WAIT holding.

    Closed connections keep their local port for ``time_wait_us`` before
    it returns to the pool, as the initiator side of a TCP teardown does.
    """

    def __init__(self, engine, lo: int = 32768, hi: int = 61000,
                 time_wait_us: float = 60_000_000.0, name: str = "ports") -> None:
        if hi <= lo:
            raise ValueError("empty port range")
        self.engine = engine
        self.name = name
        self.lo = lo
        self.hi = hi
        self.time_wait_us = time_wait_us
        self._in_use: Set[int] = set()
        self._time_wait: Set[int] = set()
        # The pool is range(lo, hi) followed by released ports in release
        # order, without materializing the range: ports below ``_next``
        # have been handed out, and ``_free`` queues the returned ones
        # behind the never-allocated rest (the FdTable idiom).
        self._next = lo
        self._free: Deque[int] = collections.deque()
        self.exhaustions = 0

    def allocate(self) -> int:
        if self._next < self.hi:
            port = self._next
            self._next += 1
        elif self._free:
            port = self._free.popleft()
        else:
            self.exhaustions += 1
            raise PortExhaustedError(
                f"{self.name}: no ephemeral ports "
                f"(in_use={len(self._in_use)}, time_wait={len(self._time_wait)})")
        self._in_use.add(port)
        return port

    def release(self, port: int, time_wait: bool = True) -> None:
        if port not in self._in_use:
            raise ValueError(f"{self.name}: releasing unallocated port {port}")
        self._in_use.remove(port)
        if time_wait and self.time_wait_us > 0:
            self._time_wait.add(port)
            self.engine.schedule(self.time_wait_us, self._reclaim, port)
        else:
            self._free.append(port)

    def _reclaim(self, port: int) -> None:
        if port in self._time_wait:
            self._time_wait.remove(port)
            self._free.append(port)
