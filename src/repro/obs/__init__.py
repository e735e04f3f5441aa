"""Observability: end-to-end tracing and time-series metrics.

The paper's contribution is *explanatory* — OProfile samples showing that
TCP's collapse comes from supervisor fd-passing IPC and idle-scan lock
contention.  The aggregate profile (:mod:`repro.profiling`) reproduces
the shares; this package reproduces the *mechanism view*:

- :class:`~repro.obs.tracer.Tracer` records begin/end spans keyed to
  simulated time for the full message lifecycle (recv → parse →
  transaction match → supervisor IPC round trip → fd-cache lookup →
  send) plus kernel events (context switches, lock spins), bounded by a
  ring buffer so million-op runs stay bounded;
- :class:`~repro.obs.metrics.MetricSampler` snapshots gauges (run-queue
  length, open connections, fd-table occupancy, IPC queue depth,
  fd-cache hit rate, idle-scan cost) and counter rates into
  fixed-interval series, with per-interval CPU-share series that turn
  the paper's 12.0% → 4.6% IPC claim into a time series;
- :class:`~repro.obs.histogram.StreamingHistogram` provides mergeable
  log-bucketed latency distributions for journey attribution;
- :mod:`~repro.obs.chrome_trace` exports Perfetto-viewable Chrome
  trace-event JSON, :mod:`~repro.obs.metrics` writes metrics JSONL, and
  :class:`~repro.obs.timeline.TimelineReport` renders series as text
  alongside :class:`~repro.profiling.report.ProfileReport`;
- :class:`~repro.obs.causal.CausalTracer` tags every SIP message with a
  trace id and records its wait-state transitions (network, socket
  queue, run queue, lock, IPC, CPU); :mod:`~repro.obs.journey`
  reconstructs per-transaction critical paths between the phone's
  ``uac_send``/``uac_final`` marks and :mod:`~repro.obs.attribution`
  aggregates them into the stacked latency-attribution figure
  (``python -m repro fig-attr``).

The simulator reaches all of it through one seam,
:class:`~repro.obs.probe.Probe`: every instrumented component holds a
single ``probe`` attribute (``None`` unless the testbed observes
something, so the unobserved hot path is one attribute load and a
branch) and calls a fixed hook set on it; the probe owns the profiler,
the span tracer and the causal tracer and binds each hook straight to
its sink.  :class:`~repro.obs.metrics.MetricSampler` is the exception:
it polls gauges from outside rather than being called.
"""

from repro.obs.attribution import (
    ALL_COMPONENTS,
    aggregate_journeys,
    attribution_table,
    render_waterfall,
)
from repro.obs.causal import (
    COMPONENTS,
    IPC_LABELS,
    CausalTracer,
    Segment,
    classify_charge,
)
from repro.obs.chrome_trace import (
    to_chrome_events,
    write_chrome_trace,
    write_journey_trace,
)
from repro.obs.histogram import StreamingHistogram
from repro.obs.journey import (
    Journey,
    build_journeys,
    decompose,
    journeys_to_jsonable,
)
from repro.obs.metrics import (
    MetricSampler,
    register_standard_probes,
    write_metrics_jsonl,
)
from repro.obs.probe import Probe
from repro.obs.timeline import TimelineReport
from repro.obs.tracer import Span, Tracer

__all__ = [
    "ALL_COMPONENTS",
    "COMPONENTS",
    "CausalTracer",
    "IPC_LABELS",
    "Journey",
    "MetricSampler",
    "Probe",
    "Segment",
    "Span",
    "StreamingHistogram",
    "TimelineReport",
    "Tracer",
    "aggregate_journeys",
    "attribution_table",
    "build_journeys",
    "classify_charge",
    "decompose",
    "journeys_to_jsonable",
    "register_standard_probes",
    "render_waterfall",
    "to_chrome_events",
    "write_chrome_trace",
    "write_journey_trace",
    "write_metrics_jsonl",
]
