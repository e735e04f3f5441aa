"""Per-process file-descriptor tables.

OpenSER's TCP architecture revolves around descriptor plumbing: the
supervisor holds a descriptor for every connection, passes duplicates to
workers over IPC (SCM_RIGHTS), and workers close their duplicates after
use.  A :class:`FileDescription` is the refcounted open-file object; an fd
is an integer slot in a process's :class:`FdTable` referencing one.

The table enforces a configurable limit so descriptor exhaustion under
connection churn (§4.3) is observable.
"""

import heapq
from typing import Any, Dict


class BadFdError(OSError):
    """Operation on a closed or never-opened descriptor (EBADF)."""


class EmfileError(OSError):
    """Per-process descriptor limit reached (EMFILE)."""


class FileDescription:
    """A refcounted open file (socket, pipe end, ...).

    ``obj`` is the underlying kernel object; when the last descriptor
    referencing the description is closed, ``obj.on_last_close()`` is
    invoked if present (e.g. to start TCP teardown).
    """

    __slots__ = ("obj", "kind", "refs", "closed")

    def __init__(self, obj: Any, kind: str = "file") -> None:
        self.obj = obj
        self.kind = kind
        self.refs = 0
        self.closed = False

    def incref(self) -> None:
        if self.closed:
            raise BadFdError(f"description already fully closed: {self!r}")
        self.refs += 1

    def decref(self) -> None:
        if self.refs <= 0:
            raise BadFdError(f"refcount underflow: {self!r}")
        self.refs -= 1
        if self.refs == 0:
            self.closed = True
            hook = getattr(self.obj, "on_last_close", None)
            if hook is not None:
                hook()

    def __repr__(self) -> str:
        return f"<FileDescription {self.kind} refs={self.refs}>"


class FdTable:
    """Integer descriptor slots for one process."""

    def __init__(self, limit: int = 1024, owner: str = "?") -> None:
        self.limit = limit
        self.owner = owner
        self._slots: Dict[int, FileDescription] = {}
        self._free: list = []  # released fds below the high-water mark
        self._next = 0

    def install(self, desc: FileDescription) -> int:
        """Claim the lowest free fd for ``desc`` (incrementing its refcount)."""
        if len(self._slots) >= self.limit:
            raise EmfileError(
                f"{self.owner}: fd limit reached ({self.limit})")
        if self._free:
            fd = heapq.heappop(self._free)
        else:
            fd = self._next
            self._next += 1
        desc.incref()
        self._slots[fd] = desc
        return fd

    def get(self, fd: int) -> FileDescription:
        desc = self._slots.get(fd)
        if desc is None:
            raise BadFdError(f"{self.owner}: bad fd {fd}")
        return desc

    def close(self, fd: int) -> None:
        desc = self._slots.pop(fd, None)
        if desc is None:
            raise BadFdError(f"{self.owner}: close of bad fd {fd}")
        heapq.heappush(self._free, fd)
        desc.decref()

    def close_all(self) -> None:
        for fd in list(self._slots):
            self.close(fd)

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, fd: int) -> bool:
        return fd in self._slots
