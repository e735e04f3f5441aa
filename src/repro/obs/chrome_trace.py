"""Chrome trace-event JSON export (Perfetto / chrome://tracing viewable).

Maps :class:`~repro.obs.tracer.Span` objects onto the Trace Event
Format's JSON-object form: closed spans become ``"X"`` (complete)
events, instants become ``"i"`` events, and every distinct ``who``
string gets a ``thread_name`` metadata event so the viewer shows
process/worker names instead of numeric tids.

``who`` strings of the form ``"proc/sub"`` split into a pid row named
``proc`` with a tid lane named ``sub``; plain names get one lane in a
shared pid.  Timestamps are simulated microseconds, which is exactly
the unit the format expects.
"""

import json
from typing import Dict, List, Optional

#: pid used for `who` strings without a "/" separator
DEFAULT_PID_NAME = "sim"


def _intern(table: Dict[str, int], name: str) -> int:
    ident = table.get(name)
    if ident is None:
        ident = len(table) + 1
        table[name] = ident
    return ident


def to_chrome_events(events) -> List[Dict]:
    """Convert an iterable of spans into trace-event dicts.

    Metadata (``process_name`` / ``thread_name``) events come first so
    viewers label lanes before any real event lands in them.
    """
    pids: Dict[str, int] = {}
    tids: Dict[str, int] = {}
    meta: List[Dict] = []
    body: List[Dict] = []
    for span in events:
        who = span.who or "?"
        proc, _, thread = who.partition("/")
        if not thread:
            proc, thread = DEFAULT_PID_NAME, who
        new_proc = proc not in pids
        pid = _intern(pids, proc)
        if new_proc:
            meta.append({"ph": "M", "name": "process_name", "pid": pid,
                         "tid": 0, "args": {"name": proc}})
        new_thread = who not in tids
        tid = _intern(tids, who)
        if new_thread:
            meta.append({"ph": "M", "name": "thread_name", "pid": pid,
                         "tid": tid, "args": {"name": thread}})
        event = {
            "name": span.name,
            "cat": span.cat,
            "ts": span.start_us,
            "pid": pid,
            "tid": tid,
        }
        if span.attrs:
            event["args"] = dict(span.attrs)
        if span.end_us is None or span.end_us == span.start_us:
            event["ph"] = "i"
            event["s"] = "t"  # thread-scoped instant
        else:
            event["ph"] = "X"
            event["dur"] = span.end_us - span.start_us
        body.append(event)
    return meta + body


def write_chrome_trace(path, tracer, extra: Optional[Dict] = None) -> int:
    """Write ``tracer``'s buffered events as a Chrome trace file.

    Returns the number of trace events written (excluding metadata).
    ``extra`` lands in ``otherData`` next to the eviction count, so a
    truncated trace is visibly partial in the viewer's metadata panel.
    """
    events = tracer.events()
    other: Dict = {
        "events_recorded": tracer.emitted,
        "events_dropped": tracer.dropped,
        "capacity": tracer.capacity,
    }
    if extra:
        other.update(extra)
    payload = {
        "traceEvents": to_chrome_events(events),
        "displayTimeUnit": "ms",
        "otherData": other,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return len(events)


def write_journey_trace(path, causal, extra: Optional[Dict] = None) -> int:
    """Write a causal tracer's segments as a Chrome trace file.

    Each wait-state segment becomes a complete event named after its
    component (``network``/``sockq``/``runq``/``lock``/``ipc``/``cpu``)
    on the lane of the process it occurred on, with the trace id in
    ``args`` so Perfetto's search groups one message's journey.  Phone
    marks (``uac_send``/``uac_final``) render as instants on the caller's
    lane, giving each journey visible endpoints.  Lanes reuse the span
    exporter's ``proc/sub`` convention, so the server's workers and
    supervisor land under one labelled process block and the phones under
    another.  Returns the number of events written (excluding metadata).
    """
    from repro.obs.tracer import Span

    spans: List[Span] = []
    for seg in causal.segments:
        span = Span(seg.kind, "journey", seg.who, seg.start_us,
                    attrs={"tid": seg.tid})
        if seg.detail:
            span.attrs["detail"] = seg.detail
        span.end_us = seg.end_us
        spans.append(span)
    for tid, which, who, t_us in causal.marks:
        span = Span(which, "journey", who, t_us, attrs={"tid": tid})
        span.end_us = t_us  # instant
        spans.append(span)
    other: Dict = {
        "segments_recorded": causal.emitted,
        "segments_dropped": causal.dropped,
        "marks": len(causal.marks),
        "capacity": causal.capacity,
    }
    if extra:
        other.update(extra)
    payload = {
        "traceEvents": to_chrome_events(spans),
        "displayTimeUnit": "ms",
        "otherData": other,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return len(spans)


def validate_chrome_trace(path) -> Dict:
    """Parse a trace file and sanity-check the schema; returns summary.

    Used by tests and the CI validation step.  Raises ``ValueError`` on
    structural problems rather than asserting, so callers get a message
    naming the offending event.
    """
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        raise ValueError("not a Chrome trace: missing traceEvents")
    names = set()
    cats = set()
    counts = {"X": 0, "i": 0, "M": 0}
    for event in payload["traceEvents"]:
        for key in ("ph", "name", "pid", "tid"):
            if key not in event:
                raise ValueError(f"event missing {key!r}: {event!r}")
        ph = event["ph"]
        counts[ph] = counts.get(ph, 0) + 1
        if ph == "M":
            continue
        if "ts" not in event:
            raise ValueError(f"event missing 'ts': {event!r}")
        if ph == "X" and not event.get("dur", 0) >= 0:
            raise ValueError(f"complete event with bad dur: {event!r}")
        names.add(event["name"])
        cats.add(event.get("cat", ""))
    return {
        "events": counts.get("X", 0) + counts.get("i", 0),
        "complete": counts.get("X", 0),
        "instants": counts.get("i", 0),
        "metadata": counts.get("M", 0),
        "names": names,
        "cats": cats,
    }
