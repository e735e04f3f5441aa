"""The §5.3 fix: timeout-ordered priority queues for idle connections.

Connections are kept sorted by their timeout deadline, so a sweep only
touches connections that have actually expired (plus ones whose deadline
moved, which are lazily re-queued).  The supervisor's queue lives in
shared memory — workers update a connection's position when they send or
receive on it — and each worker additionally keeps a local queue of the
connections it owns.

Implementation: a lazy heap.  Activity does not eagerly re-heapify;
instead the sweep pops entries whose *queued* deadline expired, re-pushes
any whose true deadline moved forward, and returns the genuinely idle
ones.  The paper's point survives intact: sweep cost is proportional to
expired-or-moved entries, not to the total connection population — but
each queue update is synchronized work, which is why the PQ "has
negligible effect" on the workloads with little connection churn (§5.3).
"""

import heapq
from typing import List, Mapping, Tuple

from repro.kernel.locks import SpinLock
from repro.proxy.conn_table import ConnRecord, ConnTable
from repro.sim.primitives import Compute


class _LazyHeap:
    """A deadline heap with lazy deletion/move."""

    __slots__ = ("entries", "_seq")

    def __init__(self) -> None:
        self.entries: List[Tuple[float, int, ConnRecord]] = []
        self._seq = 0

    def push(self, deadline: float, record: ConnRecord) -> None:
        self._seq += 1
        heapq.heappush(self.entries, (deadline, self._seq, record))

    def __len__(self) -> int:
        return len(self.entries)


class PqIdleStrategy:
    """Priority-queue idle management (supervisor + per-worker queues)."""

    name = "pq"

    def __init__(self, costs, timeout_us: float, n_workers: int) -> None:
        self.costs = costs
        self.timeout_us = timeout_us
        #: optional probe (set by the owning server)
        self.probe = None
        #: shared (shm) queue holding every connection in the server
        self.shared = _LazyHeap()
        #: guards the shared queue (workers update it on every message)
        self.lock = SpinLock("idle_pq")
        #: one local queue per worker, holding only owned connections
        self.worker_heaps = [_LazyHeap() for __ in range(n_workers)]

    # -- activity hooks -----------------------------------------------------
    def on_activity(self, record: ConnRecord, now: float):
        """Generator: a message moved this connection's deadline; update
        the shared queue's ordering (synchronized — §5.3)."""
        record.last_activity = now
        yield from self.lock.acquire("pq-update")
        try:
            yield Compute(self.costs.idle_pq_op_us, "pq_update")
            # Lazy move: the stale entry is discarded at sweep time.
            record.pq_hint = now + self.timeout_us
        finally:
            self.lock.release()

    def on_insert(self, record: ConnRecord, now: float):
        record.last_activity = now
        yield from self.lock.acquire("pq-insert")
        try:
            yield Compute(self.costs.idle_pq_op_us, "pq_insert")
            record.pq_hint = now + self.timeout_us
            self.shared.push(record.pq_hint, record)
        finally:
            self.lock.release()
        owner = record.owner
        if owner is not None:
            self.worker_heaps[owner].push(record.pq_hint, record)

    def on_release(self, record: ConnRecord, now: float):
        record.released = True
        record.released_at = now
        yield from self.lock.acquire("pq-release")
        try:
            yield Compute(self.costs.idle_pq_op_us, "pq_update")
            record.pq_hint = now + self.timeout_us
            self.shared.push(record.pq_hint, record)
        finally:
            self.lock.release()

    # -- sweeps -----------------------------------------------------------
    def supervisor_pass(self, table: ConnTable, now: float, who: str,
                        stats=None, single_phase: bool = False):
        """Generator: pop only expired queue entries; re-push moved ones.

        ``single_phase=True`` (threaded architecture): expire directly on
        inactivity instead of waiting for a worker release.
        """
        span = (self.probe.begin("idle_sweep", cat="proxy", who=who,
                                 strategy=self.name)
                if self.probe is not None else None)
        yield from self.lock.acquire(who)
        try:
            expired: List[ConnRecord] = []
            seen = set()
            ops = 0
            heap = self.shared.entries
            while heap and heap[0][0] <= now:
                __, __, record = heapq.heappop(heap)
                ops += 1
                if record.closed or id(record) in seen:
                    continue
                seen.add(id(record))
                deadline = (record.last_activity + self.timeout_us
                            if single_phase
                            else record.idle_deadline(self.timeout_us))
                if deadline > now:
                    # Deadline moved (activity, or awaiting worker release):
                    # reinsert, as §5.3 describes.
                    self.shared.push(deadline, record)
                    ops += 1
                    continue
                if record.released or single_phase:
                    expired.append(record)
                else:
                    # Idle but not yet returned by its worker: the
                    # supervisor must wait; requeue one timeout out.
                    self.shared.push(now + self.timeout_us, record)
                    ops += 1
            if ops:
                yield Compute(self.costs.idle_pq_op_us * ops, "pq_sweep")
            if stats is not None:
                stats.pq_operations += ops
                stats.idle_scans += 1
            if span is not None:
                self.probe.end(span.set(examined=ops,
                                        expired=len(expired)))
            return expired
        finally:
            self.lock.release()

    def worker_pass(self, owned: Mapping, now: float, who: str,
                    stats=None, worker_index: int = 0):
        """Generator: pop expired entries from this worker's local queue.

        ``owned`` is the worker's map of connection to ``WorkerConn``; it
        is consulted only for entries that expired.
        """
        heap = self.worker_heaps[worker_index]
        if not heap.entries or heap.entries[0][0] > now:
            return []  # O(1) peek: nothing can have expired
        expired: List[ConnRecord] = []
        seen = set()
        ops = 0
        while heap.entries and heap.entries[0][0] <= now:
            __, __, record = heapq.heappop(heap.entries)
            ops += 1
            if record.closed or record.released or id(record) in seen:
                continue
            wc = owned.get(record.conn)
            if wc is None or wc.record is not record:
                continue  # not (or no longer) this worker's
            seen.add(id(record))
            deadline = record.last_activity + self.timeout_us
            if deadline > now:
                heap.push(deadline, record)
                ops += 1
                continue
            expired.append(record)
        if ops:
            yield Compute(self.costs.idle_pq_op_us * ops, "pq_worker_sweep")
            if self.probe is not None:
                self.probe.instant("idle_sweep", cat="proxy", who=who,
                                   strategy=self.name, examined=ops,
                                   expired=len(expired))
        if stats is not None:
            stats.pq_operations += ops
        return expired
