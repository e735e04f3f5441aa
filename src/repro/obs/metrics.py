"""Time-series metrics: a periodic sampler over the live simulation.

The paper's overload stories (and the ones in Shen & Schulzrinne's TCP
overload-control work) are *dynamics*: queue depths building, hit rates
warming, IPC share collapsing when the fd cache lands.  The
:class:`MetricSampler` turns the simulator's live state into
fixed-interval series:

- **gauges** — a callable sampled as-is every tick (run-queue length,
  open connections, fd-table occupancy, IPC queue depth);
- **rates** — a cumulative counter turned into a per-second rate per
  interval (message rate, fd-request rate, idle-scan entries examined);
- **ratios** — two cumulative counters turned into a per-interval
  fraction (fd-cache hit rate);
- **CPU shares** — per-interval share of profiled CPU attributed to a
  label set (the 12.0% → 4.6% fd-passing IPC claim, as a time series).

Sampling runs as plain engine callbacks with **zero simulated cost** —
it observes, never perturbs, so a sampled cell produces bit-identical
benchmark numbers to an unsampled one and serial/parallel runs agree.
"""

import json
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.kernel.timerwheel import PeriodicTimer
from repro.obs.causal import IPC_LABELS

#: labels of the idle-connection examination work (§5.2/§5.3)
IDLE_LABELS = ("tcpconn_timeout", "tcp_receive_timeout",
               "pq_sweep", "pq_worker_sweep")

#: default sampling interval (µs of simulated time)
DEFAULT_INTERVAL_US = 10_000.0

#: hard cap on samples per series, so a forgotten sampler cannot grow
#: without bound on very long runs
MAX_SAMPLES = 1_000_000

LabelMatcher = Union[Sequence[str], Callable[[str], bool]]


def _lock_label(label: str) -> bool:
    """CPU burnt spinning or yielding for userspace locks (§5.2)."""
    return ".spin" in label or label == "kernel.sched_yield"


class MetricSampler:
    """Snapshots registered probes every ``interval_us`` of simulated time.

    Probes are registered before :meth:`start`; every tick appends one
    value per probe, so all series share the time axis
    ``t0_us + k * interval_us``.
    """

    def __init__(self, engine, interval_us: float = DEFAULT_INTERVAL_US,
                 profiler=None) -> None:
        if interval_us <= 0:
            raise ValueError("sampling interval must be positive")
        self.engine = engine
        self.interval_us = float(interval_us)
        self.profiler = profiler
        self.series: Dict[str, List[float]] = {}
        self.t0_us: Optional[float] = None
        self.samples = 0
        self._gauges: List[tuple] = []       # (name, fn)
        self._rates: List[list] = []         # [name, fn, last_value]
        self._ratios: List[list] = []        # [name, num_fn, den_fn, ln, ld]
        self._shares: List[tuple] = []       # (name, matcher)
        self._last_labels: Dict[str, float] = {}
        self._timer = PeriodicTimer(engine, self.interval_us, self._tick)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def _claim(self, name: str) -> None:
        if name in self.series:
            raise ValueError(f"duplicate metric name {name!r}")
        self.series[name] = []

    def add_gauge(self, name: str, fn: Callable[[], float]) -> None:
        self._claim(name)
        self._gauges.append((name, fn))

    def add_rate(self, name: str, fn: Callable[[], float]) -> None:
        """``fn`` returns a cumulative counter; the series is its
        per-second increase over each interval."""
        self._claim(name)
        self._rates.append([name, fn, None])

    def add_ratio(self, name: str, numerator_fn: Callable[[], float],
                  denominator_fn: Callable[[], float]) -> None:
        """Per-interval ``Δnum / Δden`` (0.0 over empty intervals)."""
        self._claim(name)
        self._ratios.append([name, numerator_fn, denominator_fn, None, None])

    def add_cpu_share(self, name: str, labels: LabelMatcher) -> None:
        """Per-interval fraction of profiled CPU in ``labels``.

        ``labels`` is a sequence of exact profiler labels or a predicate;
        requires a profiler (raises otherwise).
        """
        if self.profiler is None:
            raise ValueError("cpu-share metrics need a profiler")
        self._claim(name)
        matcher = labels if callable(labels) else frozenset(labels).__contains__
        self._shares.append((name, matcher))

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def start(self) -> "MetricSampler":
        """Take the t=now sample and begin periodic ticking."""
        if self.t0_us is not None:
            raise RuntimeError("sampler already started")
        self.t0_us = self.engine.now
        self._tick()
        self._timer.start()
        return self

    def stop(self) -> None:
        self._timer.stop()

    def _tick(self) -> None:
        if self.samples >= MAX_SAMPLES:
            self._timer.stop()
            return
        self.samples += 1
        series = self.series
        inv_interval_s = 1e6 / self.interval_us
        for name, fn in self._gauges:
            series[name].append(float(fn()))
        for entry in self._rates:
            name, fn, last = entry
            current = float(fn())
            series[name].append(0.0 if last is None
                                else (current - last) * inv_interval_s)
            entry[2] = current
        for entry in self._ratios:
            name, num_fn, den_fn, last_num, last_den = entry
            num, den = float(num_fn()), float(den_fn())
            if last_num is None or den - last_den <= 0:
                series[name].append(0.0)
            else:
                series[name].append((num - last_num) / (den - last_den))
            entry[3], entry[4] = num, den
        if self._shares:
            labels = dict(self.profiler.by_label)
            last = self._last_labels
            deltas = {label: total - last.get(label, 0.0)
                      for label, total in labels.items()}
            total_delta = sum(deltas.values())
            for name, matcher in self._shares:
                if total_delta <= 0:
                    series[name].append(0.0)
                else:
                    matched = sum(us for label, us in deltas.items()
                                  if matcher(label))
                    series[name].append(matched / total_delta)
            self._last_labels = labels

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-ready form, carried on ``BenchmarkResult.metrics``."""
        return {
            "interval_us": self.interval_us,
            "t0_us": self.t0_us if self.t0_us is not None else 0.0,
            "samples": self.samples,
            "series": {name: list(values)
                       for name, values in self.series.items()},
        }


def register_standard_probes(sampler: MetricSampler, testbed,
                             proxy) -> MetricSampler:
    """Attach the standard server-health probes for one experiment cell.

    Architecture-specific state (connection table, IPC channels, fd
    caches) registers only when the proxy actually has it, so the same
    call works for UDP, TCP, threaded and SCTP servers.
    """
    scheduler = testbed.server.scheduler
    stats = proxy.stats
    sampler.add_gauge("run_queue", scheduler.runnable)
    # events_fired only flushes when Engine.run exits; the scheduled
    # count is the mid-run-exact equivalent.
    sampler.add_rate("sim_event_rate",
                     lambda: testbed.engine.events_scheduled)
    sampler.add_gauge("txn_table", proxy.txn_table.__len__)
    sampler.add_gauge("fd_table", lambda: sum(
        len(proc.fdtable) for proc in proxy.processes
        if getattr(proc, "fdtable", None) is not None))
    conn_table = getattr(proxy, "conn_table", None)
    if conn_table is not None:
        sampler.add_gauge("open_conns", conn_table.__len__)
    channels = (list(getattr(proxy, "assign_chans", ())) +
                list(getattr(proxy, "req_chans", ())))
    if channels:
        sampler.add_gauge("ipc_depth", lambda: sum(
            chan.pending_total() for chan in channels))
    sampler.add_rate("msg_rx_rate", lambda: stats.messages_received)
    sampler.add_rate("reject_503_rate", lambda: stats.invites_rejected)
    controller = getattr(proxy, "controller", None)
    if controller is not None:
        for name, fn in controller.gauge_probes().items():
            sampler.add_gauge(f"overload_{name}", fn)
    sampler.add_rate("fd_request_rate", lambda: stats.fd_requests)
    sampler.add_rate("idle_scan_rate",
                     lambda: stats.idle_scan_entries_examined)
    sampler.add_ratio("fd_cache_hit_rate",
                      lambda: stats.fd_cache_hits,
                      lambda: stats.fd_cache_hits + stats.fd_cache_misses)
    if sampler.profiler is not None:
        sampler.add_cpu_share("cpu_ipc_share", IPC_LABELS)
        sampler.add_cpu_share("cpu_idle_share", IDLE_LABELS)
        sampler.add_cpu_share("cpu_lock_share", _lock_label)
    causal = testbed.causal
    if causal is not None:
        sampler.add_rate("causal_segment_rate", lambda: causal.emitted)
        sampler.add_gauge("causal_segments_dropped", lambda: causal.dropped)
        sampler.add_gauge("causal_marks", lambda: len(causal.marks))
    return sampler


def series_window_mean(metrics: Dict, name: str,
                       from_us: Optional[float] = None,
                       to_us: Optional[float] = None) -> float:
    """Mean of one serialized series over a simulated-time window.

    The first sample of a windowed rate/ratio/share series covers the
    interval *ending* at its timestamp, so a sample at ``t`` is included
    when ``from_us < t <= to_us``.
    """
    interval = metrics["interval_us"]
    t0 = metrics["t0_us"]
    values = metrics["series"][name]
    picked = []
    for k, value in enumerate(values):
        t = t0 + k * interval
        if from_us is not None and t <= from_us:
            continue
        if to_us is not None and t > to_us:
            break
        picked.append(value)
    return sum(picked) / len(picked) if picked else 0.0


def write_metrics_jsonl(path, cells) -> int:
    """Write metric series as JSON Lines; returns lines written.

    ``cells`` is an iterable of ``(label, metrics_dict)`` pairs (one per
    experiment cell).  Each cell contributes a ``meta`` line followed by
    one ``sample`` line per tick::

        {"type": "meta", "cell": "tcp-50/100", "interval_us": ..., ...}
        {"type": "sample", "cell": "tcp-50/100", "t_us": ..., "values": {...}}
    """
    lines = 0
    with open(path, "w") as fh:
        for label, metrics in cells:
            if not metrics:
                continue
            names = sorted(metrics["series"])
            meta = {"type": "meta", "cell": label,
                    "interval_us": metrics["interval_us"],
                    "t0_us": metrics["t0_us"],
                    "samples": metrics["samples"],
                    "series": names}
            fh.write(json.dumps(meta, sort_keys=True) + "\n")
            lines += 1
            for k in range(metrics["samples"]):
                row = {"type": "sample", "cell": label,
                       "t_us": metrics["t0_us"] + k * metrics["interval_us"],
                       "values": {name: metrics["series"][name][k]
                                  for name in names
                                  if k < len(metrics["series"][name])}}
                fh.write(json.dumps(row, sort_keys=True) + "\n")
                lines += 1
    return lines
