"""Aggregation of journeys into per-transport latency attribution.

Turns a run's reconstructed journeys into the paper-style answer:
mean/p50/p99 end-to-end latency, decomposed into the
:data:`~repro.obs.causal.COMPONENTS` stack, with per-component shares —
the machine-generated analogue of the oprofile tables (the IPC row is
the paper's Table 3 claim: 12.0% of time without the fd cache, 4.6%
with it).

Latency percentiles come from :class:`StreamingHistogram`\\ s built per
caller and folded together with :meth:`StreamingHistogram.merge`, so
aggregation cost stays O(buckets) however many phones contributed.
"""

from typing import Dict, List, Optional

from repro.obs.causal import COMPONENTS, CausalTracer
from repro.obs.histogram import StreamingHistogram
from repro.obs.journey import Journey, decompose, journey_windows

ALL_COMPONENTS = COMPONENTS + ("other",)


def aggregate_journeys(journeys: List[Journey]) -> Dict:
    """Fold journeys into one attribution summary (plain JSON dict)."""
    if not journeys:
        return {"journeys": 0}
    per_caller: Dict[str, StreamingHistogram] = {}
    comp_total = {kind: 0.0 for kind in ALL_COMPONENTS}
    methods: Dict[str, int] = {}
    total = 0.0
    for j in journeys:
        hist = per_caller.get(j.who)
        if hist is None:
            hist = per_caller[j.who] = StreamingHistogram()
        hist.add(j.total_us)
        total += j.total_us
        methods[j.method] = methods.get(j.method, 0) + 1
        for kind, us in j.components.items():
            comp_total[kind] = comp_total.get(kind, 0.0) + us
    merged = StreamingHistogram()
    for hist in per_caller.values():
        merged.merge(hist)
    n = len(journeys)
    components_us = {kind: comp_total[kind] / n for kind in ALL_COMPONENTS}
    shares = ({kind: comp_total[kind] / total for kind in ALL_COMPONENTS}
              if total > 0 else {kind: 0.0 for kind in ALL_COMPONENTS})
    return {
        "journeys": n,
        "callers": len(per_caller),
        "methods": methods,
        "latency_us": {"mean": merged.mean,
                       "p50": merged.percentile(50),
                       "p99": merged.percentile(99)},
        "mean_total_us": total / n,
        "components_us": components_us,
        "shares": shares,
    }


# ----------------------------------------------------------------------
# single-call waterfall
# ----------------------------------------------------------------------
#: bar columns per journey
WATERFALL_WIDTH = 48


def render_waterfall(causal: CausalTracer, call_id: str) -> str:
    """Text waterfall for every journey whose trace id contains call_id.

    One bar row per segment, offset/scaled to the journey window, so a
    single INVITE's trip — network, socket queue, run queue, IPC round
    trip, CPU service — reads top to bottom like a waterfall view.
    """
    width = WATERFALL_WIDTH
    rows_by_tid = causal.rows_by_tid()
    lines = []
    for tid, who, t0, t1 in journey_windows(causal):
        if call_id not in tid:
            continue
        segs = sorted((causal.segment(row)
                       for row in rows_by_tid.get(tid, ())),
                      key=lambda s: (s.start_us, s.end_us))
        j = Journey(tid, who, t0, t1, decompose(segs, t0, t1))
        lines.append(f"journey {j.tid}  caller={j.who}  "
                     f"total={j.total_us:.1f}us")
        span = j.total_us or 1.0
        for seg in segs:
            lo = max(seg.start_us, j.start_us)
            hi = min(seg.end_us, j.end_us)
            if hi <= lo:
                continue
            left = int((lo - j.start_us) / span * width)
            bar = max(1, int((hi - lo) / span * width))
            bar = min(bar, width - left)
            detail = f" ({seg.detail})" if seg.detail else ""
            lines.append(f"  {seg.kind:>8} {'.' * left}{'#' * bar}"
                         f"{' ' * (width - left - bar)} "
                         f"{hi - lo:8.1f}us  {seg.who}{detail}")
        comp = "  ".join(f"{k}={v:.1f}" for k, v in j.components.items()
                         if v > 0)
        lines.append(f"  {'sum':>8} {comp}")
        lines.append("")
    if not lines:
        return f"no completed journey matches call-id {call_id!r}"
    return "\n".join(lines).rstrip()


def attribution_table(attribution: Dict,
                      label: Optional[str] = None) -> str:
    """One attribution summary as an aligned text block."""
    if not attribution or not attribution.get("journeys"):
        return "no journeys recorded"
    lines = []
    if label:
        lines.append(label)
    lat = attribution["latency_us"]
    lines.append(f"  journeys={attribution['journeys']}  "
                 f"latency mean={lat['mean']:.1f}us "
                 f"p50={lat['p50']:.1f}us p99={lat['p99']:.1f}us")
    for kind in ALL_COMPONENTS:
        us = attribution["components_us"].get(kind, 0.0)
        share = attribution["shares"].get(kind, 0.0)
        bar = "#" * int(round(share * 40))
        lines.append(f"  {kind:>8} {us:9.1f}us  {share * 100:5.1f}%  {bar}")
    return "\n".join(lines)
