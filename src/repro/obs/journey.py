"""Per-transaction journey reconstruction from causal segments.

A *journey* is the critical path of one SIP transaction: the window
from the phone's ``uac_send`` mark (request handed to the transport) to
its ``uac_final`` mark (final response consumed), decomposed into the
:data:`~repro.obs.causal.COMPONENTS` wait states.

Reconstruction is a cursor walk over the trace-id's segments sorted by
start time: each segment contributes only its portion past the cursor,
so overlapping evidence — retransmitted requests re-tagging the same
trace id, a lock charge inside an IPC round trip — is clipped rather
than double-counted, and the decomposition sums to the window length by
construction (uncovered time lands in ``"other"``).
"""

from operator import itemgetter
from typing import Dict, List, Optional

from repro.obs.causal import COMPONENTS, CausalTracer

#: sort key of an ``(start_us, end_us, kind)`` interval: by start, then end
_START_END = itemgetter(0, 1)


class Journey:
    """One reconstructed transaction window with its decomposition."""

    __slots__ = ("tid", "who", "method", "start_us", "end_us",
                 "components")

    def __init__(self, tid: str, who: str, start_us: float,
                 end_us: float, components: Dict[str, float]) -> None:
        self.tid = tid
        self.who = who
        self.method = tid.rsplit("/", 1)[-1] if "/" in tid else "?"
        self.start_us = start_us
        self.end_us = end_us
        #: µs per component; keys are COMPONENTS plus ``"other"``
        self.components = components

    @property
    def total_us(self) -> float:
        return self.end_us - self.start_us

    def to_dict(self) -> Dict:
        return {"tid": self.tid, "who": self.who, "method": self.method,
                "start_us": self.start_us, "end_us": self.end_us,
                "total_us": self.total_us, "components": self.components}


def decompose(segments, start_us: float, end_us: float) -> Dict[str, float]:
    """Clip ``segments`` to the window and decompose it by kind.

    The cursor walk is retransmission-safe: duplicate or overlapping
    segments (same trace id tagged twice) only cover each instant once,
    first-starting segment wins.  Returns µs per component, with the
    window time no segment explains under ``"other"``; the values always
    sum to exactly ``end_us - start_us``.
    """
    return _walk(sorted([(seg.start_us, seg.end_us, seg.kind)
                         for seg in segments], key=_START_END),
                 start_us, end_us)


def _walk(intervals, start_us: float, end_us: float) -> Dict[str, float]:
    """:func:`decompose` over ``(start_us, end_us, kind)`` intervals
    already sorted by start, then end (ties in recording order)."""
    components = {kind: 0.0 for kind in COMPONENTS}
    components["other"] = 0.0
    cursor = start_us
    for seg_start, seg_end, kind in intervals:
        lo = max(seg_start, cursor)
        hi = min(seg_end, end_us)
        if hi <= lo:
            continue
        if lo > cursor:
            components["other"] += lo - cursor
        components[kind] = components.get(kind, 0.0) + (hi - lo)
        cursor = hi
    if cursor < end_us:
        components["other"] += end_us - cursor
    return components


def journey_windows(causal: CausalTracer) -> List[tuple]:
    """(tid, who, start, end) per transaction from the uac marks.

    Retransmissions leave several ``uac_send`` marks for one trace id:
    the earliest wins (the caller's latency clock starts at the first
    send).  A transaction with no final response (timed out, still in
    flight at shutdown) has no window.
    """
    first_send: Dict[str, tuple] = {}
    finals: Dict[str, float] = {}
    for tid, which, who, t_us in causal.marks:
        if which == "uac_send":
            if tid not in first_send or t_us < first_send[tid][1]:
                first_send[tid] = (who, t_us)
        elif which == "uac_final":
            if tid not in finals or t_us < finals[tid]:
                finals[tid] = t_us
    windows = []
    for tid, (who, t0) in first_send.items():
        t1 = finals.get(tid)
        if t1 is not None and t1 > t0:
            windows.append((tid, who, t0, t1))
    windows.sort(key=lambda w: w[2])
    return windows


def build_journeys(causal: CausalTracer,
                   window: Optional[tuple] = None) -> List[Journey]:
    """Reconstruct every completed journey recorded by ``causal``.

    ``window=(t0, t1)`` keeps only transactions that *start* inside the
    measured interval (warmup and drain-phase calls are excluded the
    same way the latency histograms exclude them).
    """
    rows_by_tid = causal.rows_by_tid()
    journeys = []
    for tid, who, t0, t1 in journey_windows(causal):
        if window is not None and not (window[0] <= t0 <= window[1]):
            continue
        intervals = causal.intervals(rows_by_tid.get(tid, ()))
        intervals.sort(key=_START_END)
        journeys.append(Journey(tid, who, t0, t1, _walk(intervals, t0, t1)))
    return journeys


def journeys_to_jsonable(journeys: List[Journey]) -> List[Dict]:
    return [j.to_dict() for j in journeys]
