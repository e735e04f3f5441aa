"""The shared TCP connection hash table (§3.1).

Each accepted (or dialed-out) connection gets a :class:`ConnRecord` in a
shared, spinlock-guarded table.  Records are additionally indexed by
*alias* — the peer's advertised SIP address ``(host, port)`` — which is
how the proxy finds an existing connection to a phone when forwarding
(OpenSER's ``tcpconn`` aliases).  A phone that reconnects (the
non-persistent workloads) re-aliases to its new connection; the old one
lingers until the idle machinery closes it, which is precisely the load
the §5.2/§5.3 experiments measure.
"""

from typing import Dict, List, Optional, Tuple

from repro.kernel.locks import SpinLock
from repro.sim.primitives import Compute


class ConnRecord:
    """Shared-memory state for one TCP connection."""

    __slots__ = (
        "conn_id", "conn", "desc", "owner", "alias", "last_activity",
        "released", "released_at", "closed", "created_at", "pq_hint",
        "sup_fd",
    )

    def __init__(self, conn_id: int, conn, desc, owner: Optional[int],
                 created_at: float) -> None:
        self.conn_id = conn_id
        #: the supervisor's fd number for this socket (its "copy")
        self.sup_fd: Optional[int] = None
        #: the kernel TCP connection object (server side)
        self.conn = conn
        #: the supervisor's FileDescription for the socket
        self.desc = desc
        #: index of the worker that owns (reads) this connection
        self.owner = owner
        #: the peer's advertised (host, port), set on first SIP message
        self.alias: Optional[Tuple[str, int]] = None
        self.last_activity = created_at
        #: worker has closed its fds and returned the conn (§3.1 teardown)
        self.released = False
        self.released_at = 0.0
        #: supervisor has destroyed the record
        self.closed = False
        self.created_at = created_at
        #: lazily-tracked deadline for the priority-queue strategy
        self.pq_hint = 0.0

    def idle_deadline(self, timeout_us: float) -> float:
        if self.released:
            return self.released_at + timeout_us
        return self.last_activity + timeout_us


class ConnTable:
    """Shared hash table of connection records."""

    def __init__(self, costs) -> None:
        self.costs = costs
        self.lock = SpinLock("tcp_conn_hash")
        self._by_id: Dict[int, ConnRecord] = {}
        self._by_alias: Dict[Tuple[str, int], ConnRecord] = {}
        self._next_id = 1
        self.peak_size = 0

    def __len__(self) -> int:
        return len(self._by_id)

    def all_records(self) -> List[ConnRecord]:
        """Direct view for the idle strategies (they hold the lock)."""
        return list(self._by_id.values())

    # -- generators charging CPU under the shared lock ---------------------
    def insert(self, conn, desc, owner: Optional[int], now: float,
               who: str = "?"):
        yield from self.lock.acquire(who)
        try:
            yield Compute(self.costs.conn_create_us, "tcpconn_new")
            record = ConnRecord(self._next_id, conn, desc, owner, now)
            self._next_id += 1
            self._by_id[record.conn_id] = record
            if len(self._by_id) > self.peak_size:
                self.peak_size = len(self._by_id)
            return record
        finally:
            self.lock.release()

    def lookup_alias(self, alias: Tuple[str, int], who: str = "?"):
        yield from self.lock.acquire(who)
        try:
            yield Compute(self.costs.conn_hash_lookup_us, "tcpconn_get")
            record = self._by_alias.get(alias)
            if record is not None and (record.closed or record.released):
                return None
            return record
        finally:
            self.lock.release()

    def set_alias(self, record: ConnRecord, alias: Tuple[str, int],
                  who: str = "?"):
        """Point ``alias`` at ``record`` (a reconnecting phone re-aliases)."""
        yield from self.lock.acquire(who)
        try:
            yield Compute(self.costs.conn_hash_lookup_us, "tcpconn_add_alias")
            old = record.alias
            if old is not None and self._by_alias.get(old) is record:
                del self._by_alias[old]
            record.alias = alias
            self._by_alias[alias] = record
        finally:
            self.lock.release()

    def remove(self, record: ConnRecord, who: str = "?"):
        yield from self.lock.acquire(who)
        try:
            yield Compute(self.costs.conn_destroy_us, "tcpconn_destroy")
            record.closed = True
            self._by_id.pop(record.conn_id, None)
            if record.alias is not None and \
                    self._by_alias.get(record.alias) is record:
                del self._by_alias[record.alias]
        finally:
            self.lock.release()
