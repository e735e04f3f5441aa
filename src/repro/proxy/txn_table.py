"""Shared-memory transaction state (§3: "transaction state must be shared
among worker processes").

The table lives in shared memory and is guarded by an OpenSER-style
spinlock; every probe charges hash-lookup CPU that grows with the load
factor.  Two indexes are kept, mirroring OpenSER's transaction matching:

- by *upstream key* (the caller's top-Via branch + method) to absorb
  request retransmissions, and
- by *our branch* (the Via the proxy pushed when forwarding) to match
  responses arriving from the callee side.

``TimerList`` is the shared retransmission/GC list that the timer process
scans (essential under UDP, §3.2; present but idle for request
retransmission under TCP, §3.1).
"""

import heapq
from typing import Dict, Iterator, List, Optional, Tuple

from repro.kernel.locks import SpinLock
from repro.sim.primitives import Compute


class ProxyTransaction:
    """One relayed request's state at the proxy."""

    __slots__ = (
        "upstream_key", "our_branch", "method", "source", "forward_target",
        "forwarded_text", "last_response_text", "responded", "completed",
        "created_at", "rtx_attempts", "rtx_interval_us",
    )

    def __init__(self, upstream_key: Tuple, our_branch: str, method: str,
                 source, forward_target, forwarded_text: str,
                 created_at: float) -> None:
        self.upstream_key = upstream_key
        self.our_branch = our_branch
        self.method = method
        #: where the request came from: the worker replies here
        self.source = source
        #: where the forwarded request went (binding / conn alias)
        self.forward_target = forward_target
        self.forwarded_text = forwarded_text
        self.last_response_text: Optional[str] = None
        self.responded = False
        self.completed = False
        self.created_at = created_at
        self.rtx_attempts = 0
        self.rtx_interval_us = 0.0


class TransactionTable:
    """The shared transaction hash table."""

    def __init__(self, costs, buckets: int = 16384) -> None:
        self.costs = costs
        self.buckets = buckets
        self.lock = SpinLock("txn_table")
        self._by_upstream: Dict[Tuple, ProxyTransaction] = {}
        self._by_branch: Dict[str, ProxyTransaction] = {}
        self.peak_size = 0

    def __len__(self) -> int:
        return len(self._by_branch)

    def _probe_cost(self) -> float:
        return self.costs.txn_probe_cost(len(self._by_branch), self.buckets)

    # All methods are generators: they charge CPU and take the shared lock.
    def insert(self, txn: ProxyTransaction, who: str = "?"):
        yield from self.lock.acquire(who)
        try:
            yield Compute(self.costs.txn_insert_us, "t_newtran")
            self._by_upstream[txn.upstream_key] = txn
            self._by_branch[txn.our_branch] = txn
            if len(self._by_branch) > self.peak_size:
                self.peak_size = len(self._by_branch)
        finally:
            self.lock.release()

    def lookup_upstream(self, key: Tuple, who: str = "?"):
        yield from self.lock.acquire(who)
        try:
            yield Compute(self._probe_cost(), "t_lookup_request")
            return self._by_upstream.get(key)
        finally:
            self.lock.release()

    def lookup_branch(self, branch: str, who: str = "?"):
        yield from self.lock.acquire(who)
        try:
            yield Compute(self._probe_cost(), "t_reply_matching")
            return self._by_branch.get(branch)
        finally:
            self.lock.release()

    def update(self, txn: ProxyTransaction, who: str = "?", **fields):
        """Write fields under the lock (the paper's synchronized access)."""
        yield from self.lock.acquire(who)
        try:
            yield Compute(self.costs.txn_update_us, "t_update")
            for name, value in fields.items():
                setattr(txn, name, value)
        finally:
            self.lock.release()

    def remove(self, txn: ProxyTransaction, who: str = "?"):
        yield from self.lock.acquire(who)
        try:
            yield Compute(self.costs.txn_update_us, "t_unref")
            self._by_upstream.pop(txn.upstream_key, None)
            self._by_branch.pop(txn.our_branch, None)
        finally:
            self.lock.release()


class TimerList:
    """Shared, lock-guarded deadline heap scanned by the timer process.

    Entries are ``(deadline, kind, branch)`` where kind is ``"rtx"``
    (retransmit the forwarded request) or ``"gc"`` (forget a completed
    transaction).  Lazy deletion: stale entries are discarded at pop time.
    """

    def __init__(self, costs) -> None:
        self.costs = costs
        self.lock = SpinLock("timer_list")
        self._heap: List[Tuple[float, int, str, str]] = []
        self._seq = 0
        self.inserted = 0

    def __len__(self) -> int:
        return len(self._heap)

    def insert(self, deadline: float, kind: str, branch: str, who: str = "?"):
        """Generator: add an entry (charged to the calling process)."""
        yield from self.lock.acquire(who)
        try:
            yield Compute(self.costs.timer_insert_us, "timer_add")
            self._push(deadline, kind, branch)
        finally:
            self.lock.release()

    def _push(self, deadline: float, kind: str, branch: str) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (deadline, self._seq, kind, branch))
        self.inserted += 1

    def pop_expired(self, now: float, limit: int, who: str = "?"):
        """Generator: pop up to ``limit`` expired entries (timer process)."""
        yield from self.lock.acquire(who)
        try:
            out = []
            examined = 0
            while self._heap and len(out) < limit:
                deadline, __, kind, branch = self._heap[0]
                if deadline > now:
                    break
                heapq.heappop(self._heap)
                examined += 1
                out.append((kind, branch))
            if examined:
                yield Compute(self.costs.timer_scan_entry_us * examined,
                              "timer_scan")
            return out
        finally:
            self.lock.release()
