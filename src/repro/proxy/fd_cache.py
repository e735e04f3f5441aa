"""The §5.2 fix: a per-worker connection→descriptor cache.

Before requesting a socket descriptor from the supervisor, a worker
checks its cache; a hit skips both the IPC round trip and the wait for
the supervisor to be scheduled.  A miss falls through to the IPC path and
the received descriptor is cached for reuse.

Cached descriptors pin the connection open (they hold a reference on the
shared :class:`~repro.kernel.fdtable.FileDescription`), so the worker's
idle pass calls :meth:`FdCache.evict_dead` to drop entries whose
connection has been released or closed — otherwise the supervisor could
never finish tearing those connections down.
"""

from typing import Dict, Optional, Tuple

from repro.proxy.conn_table import ConnRecord


class FdCache:
    """conn_id → (fd, record) mapping private to one worker."""

    def __init__(self, fdtable, who: str = "worker") -> None:
        self.fdtable = fdtable
        self.who = who
        self._entries: Dict[int, Tuple[int, ConnRecord]] = {}
        #: optional instrumentation probe, for eviction instants only —
        #: lookups are traced and counted by the caller, which knows the
        #: send context.  (Every other component calls this attribute
        #: ``probe``; here that name is the lookup.)
        self.obs_probe = None
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def probe(self, record: ConnRecord) -> Optional[int]:
        """The cached fd for a live connection, else None."""
        entry = self._entries.get(record.conn_id)
        if entry is None:
            self.misses += 1
            return None
        fd, __ = entry
        if record.closed or record.released:
            self._evict(record.conn_id, fd)
            self.misses += 1
            return None
        self.hits += 1
        return fd

    def store(self, record: ConnRecord, fd: int) -> None:
        existing = self._entries.get(record.conn_id)
        if existing is not None and existing[0] != fd:
            self._evict(record.conn_id, existing[0])
        self._entries[record.conn_id] = (fd, record)

    def evict_record(self, record: ConnRecord) -> bool:
        """Drop (and close) the cached fd for one connection."""
        entry = self._entries.get(record.conn_id)
        if entry is None:
            return False
        self._evict(record.conn_id, entry[0])
        return True

    def evict_dead(self) -> int:
        """Idle-pass hook: drop entries whose connection is going away."""
        dead = [record for __, record in self._entries.values()
                if record.closed or record.released]
        for record in dead:
            self.evict_record(record)
        return len(dead)

    def _evict(self, conn_id: int, fd: int) -> None:
        del self._entries[conn_id]
        self.evictions += 1
        if self.obs_probe is not None:
            self.obs_probe.instant("fd_cache_evict", cat="proxy",
                                   who=self.who, conn=conn_id)
        if fd in self.fdtable:
            self.fdtable.close(fd)
