"""Interprocess communication: bounded duplex channels with fd passing.

Models the unix-domain socket pairs OpenSER sets up between the TCP
supervisor and each worker.  Two properties matter for the paper:

1. **Cost and serialization** — every fd request is a round trip through
   the single supervisor (Fig. 4's 12% → 4.6% IPC time).  Costs are
   charged by the *callers* from the proxy cost model; this module only
   provides the blocking semantics.
2. **Bounded buffers + blocking sends** — the §6 deadlock: the supervisor
   blocks sending a new connection to a worker whose buffer is full while
   that worker blocks awaiting an fd response the supervisor will never
   send.

An :class:`IpcEndpoint` also satisfies the :class:`~repro.kernel.poller.Poller`
source protocol (``readable`` / ``readable_signal``).
"""

import collections
from typing import Any, Deque, Optional

from repro.sim.events import Signal
from repro.sim.primitives import Wait


class FdPayload:
    """An SCM_RIGHTS-style descriptor transfer riding on a message."""

    __slots__ = ("description",)

    def __init__(self, description) -> None:
        self.description = description


class IpcMessage:
    """One message on a channel: a kind tag, payload, optional fd."""

    __slots__ = ("kind", "payload", "fd")

    def __init__(self, kind: str, payload: Any = None,
                 fd: Optional[FdPayload] = None) -> None:
        self.kind = kind
        self.payload = payload
        self.fd = fd


class _Direction:
    """One direction of a channel: a bounded FIFO of messages."""

    __slots__ = ("capacity", "queue", "readable_signal", "writable_signal")

    def __init__(self, engine, capacity: int, name: str) -> None:
        self.capacity = capacity
        self.queue: Deque[IpcMessage] = collections.deque()
        self.readable_signal = Signal(engine, name=f"{name}.readable")
        self.writable_signal = Signal(engine, name=f"{name}.writable")

    @property
    def full(self) -> bool:
        return len(self.queue) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self.queue


class IpcEndpoint:
    """One end of a duplex channel."""

    def __init__(self, channel: "IpcChannel", outgoing: _Direction,
                 incoming: _Direction, name: str) -> None:
        self.channel = channel
        self.name = name
        self._out = outgoing
        self._in = incoming
        #: diagnostics for deadlock analysis
        self.blocked_sending_since: Optional[float] = None
        self.blocked_receiving_since: Optional[float] = None
        self._engine = channel.engine

    # -- poller source protocol ----------------------------------------
    def readable(self) -> bool:
        return not self._in.empty

    @property
    def readable_signal(self) -> Signal:
        return self._in.readable_signal

    @property
    def writable_signal(self) -> Signal:
        return self._out.writable_signal

    # -- blocking operations (generators) --------------------------------
    def send(self, msg: IpcMessage):
        """Generator: block until buffer space is available, then enqueue."""
        while not self.try_send(msg):
            if self.blocked_sending_since is None:
                self.blocked_sending_since = self._engine.now
                probe = self.channel.probe
                if probe is not None:
                    probe.instant("ipc_send_blocked", cat="ipc",
                                  who=self.name, kind=msg.kind)
            yield Wait(self._out.writable_signal, "ipc")

    def recv(self):
        """Generator: block until a message is available; returns it."""
        while self._in.empty:
            if self.blocked_receiving_since is None:
                self.blocked_receiving_since = self._engine.now
            yield Wait(self._in.readable_signal, "ipc")
        return self.try_recv()

    # -- non-blocking operations -----------------------------------------
    def try_send(self, msg: IpcMessage) -> bool:
        if self._out.full:
            return False
        # A successful transfer proves this endpoint is not wedged; a
        # marker left by an earlier blocking call is stale and would show
        # the deadlock detector a phantom permanently-blocked endpoint.
        self.blocked_sending_since = None
        self._enqueue(msg)
        return True

    def try_recv(self) -> Optional[IpcMessage]:
        if self._in.empty:
            return None
        self.blocked_receiving_since = None
        return self._dequeue()

    # -- internals ---------------------------------------------------------
    def _enqueue(self, msg: IpcMessage) -> None:
        if msg.fd is not None:
            # The in-flight message holds a reference so the description
            # cannot be reaped while queued (as the kernel does for
            # SCM_RIGHTS messages).
            msg.fd.description.incref()
        self._out.queue.append(msg)
        self._out.readable_signal.fire()

    def _dequeue(self) -> IpcMessage:
        msg = self._in.queue.popleft()
        self._in.writable_signal.fire()
        return msg

    def pending(self) -> int:
        """Messages waiting to be received on this endpoint."""
        return len(self._in.queue)


class IpcChannel:
    """A duplex bounded channel between two processes.

    ``a`` and ``b`` are the two endpoints; capacity is per direction, in
    messages (unix-domain buffers are byte-bounded; message-bounded is the
    equivalent observable behaviour for fixed-size control messages).
    """

    def __init__(self, engine, capacity: int = 64,
                 name: str = "ipc") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.engine = engine
        self.name = name
        #: optional probe (endpoints reach it via the channel; None keeps
        #: the blocking paths emission-free)
        self.probe = None
        self._a2b = _Direction(engine, capacity, f"{name}.a2b")
        self._b2a = _Direction(engine, capacity, f"{name}.b2a")
        self.a = IpcEndpoint(self, self._a2b, self._b2a, f"{name}.a")
        self.b = IpcEndpoint(self, self._b2a, self._a2b, f"{name}.b")

    def pending_total(self) -> int:
        """Messages queued in both directions (the sampler's depth gauge)."""
        return self.a.pending() + self.b.pending()

    def drain(self) -> int:
        """Discard every queued message (dropping queue fd references);
        returns how many were discarded.  Used when a worker is restarted
        and its in-flight traffic is no longer meaningful."""
        dropped = 0
        for direction in (self._a2b, self._b2a):
            while direction.queue:
                msg = direction.queue.popleft()
                if msg.fd is not None:
                    msg.fd.description.decref()
                dropped += 1
            direction.writable_signal.fire()
        return dropped


def receive_fd(msg: IpcMessage, fdtable) -> int:
    """Install a received descriptor into ``fdtable`` (kernel side of
    SCM_RIGHTS delivery) and drop the in-flight reference.

    Returns the new fd number.
    """
    if msg.fd is None:
        raise ValueError("message carries no descriptor")
    desc = msg.fd.description
    fd = fdtable.install(desc)
    desc.decref()  # the queue's reference
    return fd
