"""Causal per-message tracing: wait-state transitions keyed by trace id.

The flat spans of :mod:`repro.obs.tracer` say *that* a worker spent time
in ``fd_request_rtt``; they cannot say how one INVITE's 900 µs divided
into socket-queue wait vs run-queue wait vs lock vs IPC vs CPU — the
question the paper answers by hand with oprofile tables.  This module
answers it automatically:

- every SIP message is tagged with a **trace id** derived from its
  Call-ID and CSeq method (``sniff``), so INVITE and BYE transactions
  sharing a dialog stay distinct;
- instrumented components emit segments — one interval of simulated
  time attributed to a *kind* drawn from :data:`COMPONENTS` — into a
  bounded ring buffer stored as columns (a :class:`Segment` is only a
  view built on request);
- the phone marks ``uac_send``/``uac_final`` instants that delimit each
  transaction's journey window (:mod:`repro.obs.journey` reconstructs
  the critical path between them).

Wiring is :mod:`repro.obs.probe`'s: no component holds this tracer.
They hold the testbed's ``probe`` (``None`` when nothing is observed)
and call its hooks, which are this class's bound methods while causal
tracing is on.

Attribution of *blocked* waits travels with the request: a blocking
primitive yields ``Wait(source, why)`` naming its wait state, the
kernel process's dispatch passes ``why`` to :meth:`on_block_start`, and
:meth:`on_block_end` emits the classified segment when the process
wakes.  A ``Sleep``, or a ``Wait`` that names no reason, attributes
nothing.
"""

from array import array
from itertools import chain
from typing import Dict, List, Optional

#: critical-path components, in stacked-figure order
COMPONENTS = ("network", "sockq", "runq", "lock", "ipc", "cpu")

#: default ring-buffer capacity (segments); 51 bytes/segment in memory:
#: four list slots and two doubles per row, list growth included
#: (measured on an observed small ``tcp-persistent`` cell)
DEFAULT_CAPACITY = 500_000

#: Compute labels of the descriptor-request IPC path (worker and
#: supervisor sides) — the paper's §5.1 "function in which the IPC
#: occurred".  Journeys attribute these charges to ``ipc``; the metric
#: sampler's ``cpu_ipc_share`` sums them.
IPC_LABELS = frozenset({
    "ipc_send_fd_request", "ipc_recv", "receive_fd",
    "tcpconn_send_fd", "ipc_send", "send_fd",
})


def classify_charge(label: str) -> str:
    """Map a scheduler charge label to an attribution component."""
    if label.startswith("lock.") or label == "kernel.sched_yield":
        return "lock"
    if label in IPC_LABELS:
        return "ipc"
    return "cpu"


class Segment:
    """One interval of simulated time attributed to a trace id."""

    __slots__ = ("tid", "kind", "who", "start_us", "end_us", "detail")

    def __init__(self, tid: str, kind: str, who: str, start_us: float,
                 end_us: float, detail: Optional[str] = None) -> None:
        self.tid = tid
        self.kind = kind
        self.who = who
        self.start_us = start_us
        self.end_us = end_us
        self.detail = detail

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us


class CausalTracer:
    """Ring-buffered wait-state transition recorder for one simulation.

    One instance is shared by every machine and the fabric of a
    :class:`~repro.testbed.Testbed` (messages cross machines; their
    trace ids must not).
    """

    def __init__(self, engine, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("causal tracer capacity must be positive")
        self.engine = engine
        self.capacity = capacity
        # The ring store: row r of these parallel columns is one segment.
        # note() appends until ``capacity`` rows exist, then overwrites
        # row ``emitted % capacity``, the oldest.
        self._tid: List[str] = []
        self._kind: List[str] = []
        self._who: List[str] = []
        self._detail: List[Optional[str]] = []
        #: start_us and end_us of row r at 2r and 2r + 1
        self._times = array("d")
        #: segments ever recorded (≥ len(self) once evicting)
        self.emitted = 0
        #: the one string kept per trace id (see :meth:`trace_id`)
        self._tid_strings: Dict[str, str] = {}
        #: journey-window marks: (tid, which, who, t_us) with which in
        #: {"uac_send", "uac_final"}
        self.marks: List[tuple] = []
        #: per-process trace-id context, keyed by FULL scheduler process
        #: name (e.g. ``server/tcp-worker-0``)
        self._ctx: Dict[str, str] = {}
        #: block reasons parked until the blocked process wakes
        self._block_reason: Dict[str, str] = {}
        #: run-queue entry stamps for processes with an active context
        self._runq_since: Dict[str, float] = {}
        #: free-form event counters (fd-cache hits, drops, ...)
        self.counters: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # trace-id extraction
    # ------------------------------------------------------------------
    @staticmethod
    def sniff(text: str) -> Optional[str]:
        """Trace id for a SIP message: ``"<Call-ID>/<CSeq method>"``.

        The CSeq method disambiguates the INVITE/ACK/BYE transactions of
        one dialog, which share a Call-ID.  Returns None for text with
        no Call-ID header (keep-alives, garbage).
        """
        i = text.find("Call-ID:")
        if i < 0:
            return None
        j = text.find("\r\n", i)
        call_id = text[i + 8:j if j >= 0 else len(text)].strip()
        if not call_id:
            return None
        k = text.find("CSeq:")
        if k < 0:
            return call_id
        m = text.find("\r\n", k)
        cseq = text[k + 5:m if m >= 0 else len(text)].strip()
        method = cseq.rsplit(" ", 1)[-1] if cseq else ""
        return f"{call_id}/{method}" if method else call_id

    def trace_id(self, text: str) -> Optional[str]:
        """:meth:`sniff`, returning one shared string per trace id.

        The probe's ``sniff`` hook: every segment and tagged message of a
        transaction then refers to one string, not a copy per message.
        """
        tid = self.sniff(text)
        if tid is None:
            return None
        return self._tid_strings.setdefault(tid, tid)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def note(self, tid: Optional[str], kind: str, who: str,
             start_us: float, end_us: float,
             detail: Optional[str] = None) -> None:
        """Record one attributed interval (no-op for untagged traffic)."""
        if tid is None or end_us <= start_us:
            return
        row = self.emitted
        self.emitted = row + 1
        if row < self.capacity:
            self._tid.append(tid)
            self._kind.append(kind)
            self._who.append(who)
            self._detail.append(detail)
            self._times.append(start_us)
            self._times.append(end_us)
            return
        row %= self.capacity
        self._tid[row] = tid
        self._kind[row] = kind
        self._who[row] = who
        self._detail[row] = detail
        self._times[2 * row] = start_us
        self._times[2 * row + 1] = end_us

    def mark(self, tid: Optional[str], which: str, who: str) -> None:
        """Record a journey-window boundary at the current time."""
        if tid is None:
            return
        self.marks.append((tid, which, who, self.engine.now))

    def count(self, key: str) -> None:
        self.counters[key] = self.counters.get(key, 0) + 1

    # ------------------------------------------------------------------
    # per-process message context
    # ------------------------------------------------------------------
    def ctx_begin(self, proc_name: str, tid: Optional[str]) -> None:
        """Attribute ``proc_name``'s time to ``tid`` until ``ctx_end``."""
        if tid is not None:
            self._ctx[proc_name] = tid

    def ctx_end(self, proc_name: str) -> None:
        self._ctx.pop(proc_name, None)
        self._runq_since.pop(proc_name, None)

    # ------------------------------------------------------------------
    # scheduler hooks (reached through the probe)
    # ------------------------------------------------------------------
    def on_block_start(self, proc_name: str, reason: str) -> None:
        """Dispatch saw ``proc_name`` block on a ``Wait(..., reason)``."""
        if proc_name in self._ctx:
            self._block_reason[proc_name] = reason

    def on_block_end(self, proc_name: str, blocked_at: float) -> None:
        """``proc_name`` became ready after blocking at ``blocked_at``."""
        reason = self._block_reason.pop(proc_name, None)
        if reason is None:
            return
        tid = self._ctx.get(proc_name)
        if tid is not None:
            self.note(tid, reason, proc_name, blocked_at, self.engine.now)

    def on_runq_push(self, proc_name: str) -> None:
        """``proc_name`` entered the run queue (earliest stamp wins)."""
        if proc_name in self._ctx and proc_name not in self._runq_since:
            self._runq_since[proc_name] = self.engine.now

    def on_runq_pop(self, proc_name: str) -> None:
        """``proc_name`` left the run queue for a core."""
        since = self._runq_since.pop(proc_name, None)
        if since is None:
            return
        tid = self._ctx.get(proc_name)
        if tid is not None:
            self.note(tid, "runq", proc_name, since, self.engine.now)

    def on_charge(self, proc_name: str, label: str, us: float) -> None:
        """``proc_name`` was just charged ``us`` of CPU under ``label``."""
        if us <= 0:
            return
        tid = self._ctx.get(proc_name)
        if tid is None:
            return
        now = self.engine.now
        self.note(tid, classify_charge(label), proc_name, now - us, now,
                  label)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def _rows(self):
        """Row indices of the buffer, oldest first."""
        n = len(self._tid)
        head = self.emitted % n if self.emitted > n else 0
        return chain(range(head, n), range(head))

    def segment(self, row: int) -> Segment:
        """A :class:`Segment` view of one row."""
        times = self._times
        return Segment(self._tid[row], self._kind[row], self._who[row],
                       times[2 * row], times[2 * row + 1], self._detail[row])

    @property
    def segments(self) -> List[Segment]:
        """Every buffered segment, oldest first (views built per access)."""
        return [self.segment(row) for row in self._rows()]

    def rows_by_tid(self) -> Dict[str, array]:
        """Row indices per trace id, each oldest first; trace ids in the
        order they first appear."""
        groups: Dict[str, array] = {}
        tids = self._tid
        for row in self._rows():
            rows = groups.get(tids[row])
            if rows is None:
                rows = groups[tids[row]] = array("I")
            rows.append(row)
        return groups

    def intervals(self, rows) -> List[tuple]:
        """``(start_us, end_us, kind)`` of each of ``rows``."""
        times, kinds = self._times, self._kind
        return [(times[2 * row], times[2 * row + 1], kinds[row])
                for row in rows]

    @property
    def dropped(self) -> int:
        """Segments evicted by the ring buffer (oldest-first)."""
        return self.emitted - len(self._tid)

    def __len__(self) -> int:
        return len(self._tid)
