"""Workload specifications and benchmark results."""

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.obs.histogram import PERCENTILE_POINTS


@dataclass
class Workload:
    """One experimental cell.

    ``clients`` counts concurrent *callers* (each caller has a dedicated
    callee, as the §4.2 manager pairs them).  ``ops_per_conn`` is the TCP
    connection-reuse knob from Fig. 3–5: ``None`` means persistent
    connections; 50/500 reconnect after that many operations, abandoning
    (never closing) the old connection, as the paper's clients did.

    ``offered_cps`` selects the load loop: 0 is the paper's closed-loop
    benchmark (each caller starts its next call when the previous one
    finishes, so offered load can never exceed capacity); a positive rate
    drives Poisson call arrivals at ``offered_cps`` calls/second across
    the caller pool, *independent of completions* — the open-loop
    overload regime, where offered load above capacity triggers
    retransmission-driven collapse unless a controller sheds it.
    """

    clients: int = 100
    ops_per_conn: Optional[int] = None
    warmup_us: float = 150_000.0
    measure_us: float = 400_000.0
    register_deadline_us: float = 20_000_000.0
    offered_cps: float = 0.0       #: open-loop Poisson arrival rate, calls/s

    def validate(self) -> None:
        # NaN passes every ``<=`` check below and an infinite window never
        # ends: a non-finite time or rate would hang the cell.
        for name in ("warmup_us", "measure_us", "register_deadline_us",
                     "offered_cps"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.clients < 1:
            raise ValueError("need at least one client pair")
        if self.ops_per_conn is not None and self.ops_per_conn < 1:
            raise ValueError("ops_per_conn must be positive")
        if self.measure_us <= 0:
            raise ValueError("measurement window must be positive")
        if self.warmup_us < 0:
            raise ValueError("warmup_us must be >= 0")
        if self.register_deadline_us <= 0:
            raise ValueError("register_deadline_us must be positive")
        if self.offered_cps < 0:
            raise ValueError("offered_cps must be >= 0 (0 = closed loop)")


@dataclass
class BenchmarkResult:
    """What one run of one cell produced.

    Every field is JSON-serializable, so results survive the disk cache
    and the parallel runner's process boundary unchanged
    (:mod:`repro.analysis.runner`).  Server-side state a benchmark wants
    to assert on must therefore live in the summary fields below
    (``proxy_totals``, ``open_conns``), not on live objects.
    """

    throughput_ops_s: float
    ops: int
    duration_us: float
    calls_completed: int
    calls_failed: int
    registration_failures: int
    cpu_utilization: float
    proxy_stats: Dict[str, int] = field(default_factory=dict)
    profile: Dict[str, float] = field(default_factory=dict)
    #: call-setup latency (INVITE → 2xx) percentiles+mean, µs:
    #: {"p50": ..., "p95": ..., "p99": ..., "p99.9": ..., "mean": ...}
    setup_latency_us: Dict[str, float] = field(default_factory=dict)
    #: request-processing latency (BYE → 2xx; no ring delay) — same shape
    processing_latency_us: Dict[str, float] = field(default_factory=dict)
    #: cumulative proxy counters at the end of the run (not windowed)
    proxy_totals: Dict[str, float] = field(default_factory=dict)
    #: connection-table population at the end of the run (0 for UDP)
    open_conns: int = 0
    #: serialized :meth:`repro.obs.MetricSampler.to_dict` series (empty
    #: unless the cell sampled metrics); plain JSON, so it survives the
    #: runner's process boundary and the disk cache
    metrics: Dict = field(default_factory=dict)
    #: calls *successfully completed* per second inside the measurement
    #: window — the overload figure's y-axis.  Unlike
    #: ``throughput_ops_s`` (which counts proxy operations), goodput
    #: gives no credit for work spent on calls that later failed.
    goodput_cps: float = 0.0
    #: open-loop offered rate this cell was driven at (0 = closed loop)
    offered_cps: float = 0.0
    #: calls started inside the measurement window
    calls_attempted: int = 0
    #: INVITEs the proxy shed with 503 inside the measurement window
    rejections_503: int = 0
    #: UAC-side request retransmissions inside the measurement window —
    #: the amplification term that drives congestion collapse over UDP
    client_retransmissions: int = 0
    #: fault-injection record (empty unless the cell ran with a fault
    #: plan, deadlock detector or watchdog): {"plan": ..., "injected":
    #: [...], "deadlocks": [...], "restarts": [...]} — plain JSON
    faults: Dict = field(default_factory=dict)
    #: per-transport latency attribution (empty unless the cell ran with
    #: causal tracing): :func:`repro.obs.aggregate_journeys` output —
    #: journey counts, latency percentiles and the critical-path share
    #: of each wait state {network, sockq, runq, lock, ipc, cpu, other}
    attribution: Dict = field(default_factory=dict)


def percentiles(samples) -> Dict[str, float]:
    """Nearest-rank :data:`PERCENTILE_POINTS` plus ``mean`` (empty dict if
    no samples).

    Keys render compactly (``p99.9``, not ``p99.90``); the shape matches
    :meth:`repro.obs.StreamingHistogram.percentiles` so exact and
    streaming summaries are interchangeable downstream.
    """
    if not samples:
        return {}
    ordered = sorted(samples)
    out = {}
    for point in PERCENTILE_POINTS:
        rank = max(0, min(len(ordered) - 1,
                          math.ceil(point / 100.0 * len(ordered)) - 1))
        out[f"p{point:g}"] = ordered[rank]
    out["mean"] = sum(ordered) / len(ordered)
    return out
