"""Running the paper's experimental cells.

One *cell* is a (series, client-count) pair from Figs. 3–5; one *figure*
is the 4×3 grid.  Worker counts follow §4.3 (24 for UDP, 32 for TCP);
the supervisor runs at nice −20 and the idle timeout is 10 s unless an
experiment overrides them.

Simulated windows default to a fraction of the paper's multi-minute runs
(throughput is stationary under saturation); ``REPRO_SCALE`` in the
environment scales them for quicker smoke runs.

**Time compression.**  The connection-churn effects (§5.2/§5.3) depend on
the *population* of abandoned connections relative to the live ones; in
steady state ``abandoned ≈ (throughput / ops_per_conn) × 2×idle_timeout``.
The paper reaches that steady state over minutes with a 10 s timeout;
simulating minutes of a saturated server is wasteful, so the experiment
driver compresses the timeout by ``TIME_COMPRESSION`` (5×: 10 s → 2 s)
**and** divides ``ops_per_conn`` by the same factor, which preserves the
abandoned-to-live ratio exactly.  The cost is that connection *setup*
events run 5× more frequently than the paper's (a few percent of CPU,
in the same direction for every TCP series).  Experiments about the
timeout itself (Tab. S2) override this.
"""

import gc
import math
import os
from dataclasses import dataclass
from typing import Dict, Optional

from repro.clients import BenchmarkManager, BenchmarkResult, Workload
from repro.proxy import CostModel, ProxyConfig, build_proxy
from repro.testbed import Testbed

UDP_WORKERS = 24
TCP_WORKERS = 32

#: series name -> (transport, ops_per_conn)
SERIES_DEF = {
    "udp": ("udp", None),
    "sctp": ("sctp", None),
    "tcp-persistent": ("tcp", None),
    "tcp-500": ("tcp", 500),
    "tcp-50": ("tcp", 50),
    "tcp-threaded": ("tcp-threaded", None),
    "tcp-threaded-50": ("tcp-threaded", 50),
}


def _scale() -> float:
    raw = os.environ.get("REPRO_SCALE", "1.0")
    try:
        scale = float(raw)
    except ValueError:
        scale = math.nan
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"REPRO_SCALE={raw!r}: expected a positive number "
                         "(e.g. 0.5 halves the measurement windows)")
    return scale


#: simulated-time compression for connection-churn dynamics
TIME_COMPRESSION = 5.0
#: compressed idle timeout used by default (paper: 10 s)
SCALED_IDLE_TIMEOUT_US = 10_000_000.0 / TIME_COMPRESSION


@dataclass
class ExperimentSpec:
    """Everything needed to run one cell.

    ``warmup_us``/``measure_us`` of ``None`` pick per-series defaults:
    connection-churn series need a warmup beyond 2× the idle timeout so
    the abandoned-connection population reaches steady state.
    """

    series: str = "udp"
    clients: int = 100
    fd_cache: bool = False
    idle_strategy: str = "scan"
    supervisor_nice: int = -20
    idle_timeout_us: float = SCALED_IDLE_TIMEOUT_US
    workers: Optional[int] = None
    seed: int = 1
    warmup_us: Optional[float] = None
    measure_us: Optional[float] = None
    profile: bool = False
    #: sample time-series metrics every this many µs of simulated time
    #: (None = no sampling); implies profiling so CPU-share series exist
    sample_us: Optional[float] = None
    #: record spans into a live tracer (``result.tracer``); trace results
    #: cannot be cached or cross the parallel runner's process boundary
    trace: bool = False
    #: record causal per-message segments and attach latency attribution
    #: (``result.attribution`` + live ``result.causal``/``result.journeys``);
    #: like ``trace``, causal results are uncacheable and serial-only
    causal: bool = False
    costs: Optional[CostModel] = None
    stateful: bool = True
    server_fd_limit: int = 65536  # a tuned server (ulimit -n raised)
    #: bypass the compression-coupled reuse count (timeout experiments)
    ops_per_conn_override: Optional[int] = None
    # -- overload cells (fig-overload) ---------------------------------
    #: open-loop Poisson arrival rate, calls/s (None = closed loop)
    offered_cps: Optional[float] = None
    #: overload controller name (see :data:`repro.overload.VALID_CONTROLLERS`)
    controller: str = "none"
    #: compressed SIP T1 for overload cells (None = the config default
    #: 500 ms).  T2/T4 and the timer tick follow from it on both the proxy
    #: and the phones (:class:`~repro.proxy.config.ProxyConfig`), so
    #: retransmission dynamics fit sub-second measurement windows.
    sip_t1_us: Optional[float] = None
    #: exempt this cell's windows from REPRO_SCALE (experiments whose
    #: effect needs a minimum absolute duration, like Tab. S2)
    scale_windows: bool = True
    # -- fault-injection cells (fig-faults) -----------------------------
    #: serialized :class:`repro.faults.FaultPlan` (``plan.to_dict()``;
    #: None = no injected faults).  Event times are relative to the
    #: start of the measurement window.
    fault_plan: Optional[Dict] = None
    #: run the wait-for-graph deadlock detector alongside the cell
    detect_deadlocks: bool = False
    #: run the supervisor watchdog (crash/hang/deadlock restarts)
    watchdog: bool = False

    @property
    def live_only(self) -> bool:
        """The cell exists for a live sink (``result.tracer`` /
        ``result.causal``), which no cached or pickled result can carry:
        uncacheable, and serial-only."""
        return self.trace or self.causal

    def transport(self) -> str:
        return SERIES_DEF[self.series][0]

    def ops_per_conn(self) -> Optional[int]:
        """The paper's reuse knob, compressed with the idle timeout so the
        abandoned-to-live connection ratio matches the paper's regime."""
        nominal = SERIES_DEF[self.series][1]
        if nominal is None:
            return None
        if self.ops_per_conn_override is not None:
            return self.ops_per_conn_override
        # Experiments running with uncompressed (>= 10 s) timeouts keep
        # the paper's nominal reuse counts.
        compression = max(1.0, 10_000_000.0 / self.idle_timeout_us)
        return max(2, round(nominal / compression))

    def default_workers(self) -> int:
        return UDP_WORKERS if self.transport() in ("udp", "sctp") \
            else TCP_WORKERS

    def windows(self) -> tuple:
        """(warmup_us, measure_us) for this cell."""
        if self.warmup_us is not None and self.measure_us is not None:
            return self.warmup_us, self.measure_us
        if self.transport() in ("udp", "sctp"):
            defaults = (250_000.0, 500_000.0)
        elif self.ops_per_conn() is not None:
            # Churn: build the abandoned-connection population first.
            defaults = (2.1 * self.idle_timeout_us, 600_000.0)
        else:
            defaults = (600_000.0, 600_000.0)
        warmup = self.warmup_us if self.warmup_us is not None else defaults[0]
        measure = self.measure_us if self.measure_us is not None \
            else defaults[1]
        return warmup, measure


def run_cell(spec: ExperimentSpec) -> BenchmarkResult:
    """Run one cell; returns the client-measured result."""
    if spec.series not in SERIES_DEF:
        raise ValueError(f"ExperimentSpec.series={spec.series!r}: expected "
                         f"one of {', '.join(SERIES_DEF)}")
    if spec.offered_cps is not None and not spec.offered_cps > 0:
        raise ValueError(f"ExperimentSpec.offered_cps={spec.offered_cps!r}: "
                         "expected a rate > 0, or None for a closed loop")
    gc.collect()  # a previous cell's world is one big cycle: free it first
    scale = _scale()
    # Sampling needs a profiler for the CPU-share series; the profiler
    # only aggregates charged bursts, so enabling it never perturbs the
    # simulation (sampled and unsampled cells produce identical numbers).
    bed = Testbed(seed=spec.seed,
                  profile=spec.profile or spec.sample_us is not None,
                  trace=spec.trace,
                  causal=spec.causal,
                  server_fd_limit=spec.server_fd_limit)
    t1_kw = {} if spec.sip_t1_us is None else {"sip_t1_us": spec.sip_t1_us}
    config = ProxyConfig(
        transport=spec.transport(),
        workers=spec.workers or spec.default_workers(),
        fd_cache=spec.fd_cache,
        idle_strategy=spec.idle_strategy,
        supervisor_nice=spec.supervisor_nice,
        idle_timeout_us=spec.idle_timeout_us,
        stateful=spec.stateful,
        overload_controller=spec.controller,
        **t1_kw,
    )
    proxy = build_proxy(bed.server, config, spec.costs).start()
    warmup_us, measure_us = spec.windows()
    if spec.scale_windows:
        # REPRO_SCALE trades measurement precision for wall time; the
        # warmup is a correctness requirement (steady-state populations)
        # and is never scaled.
        measure_us *= scale
    workload = Workload(
        clients=spec.clients,
        ops_per_conn=spec.ops_per_conn(),
        warmup_us=warmup_us,
        measure_us=measure_us,
        offered_cps=spec.offered_cps or 0.0,
    )
    manager = BenchmarkManager(bed, proxy, workload)
    # -- fault machinery (all zero simulated cost; see repro.faults) ----
    detector = watchdog = injector = None
    if spec.detect_deadlocks:
        from repro.faults import DeadlockDetector
        detector = DeadlockDetector(bed.engine)
        detector.watch_proxy(proxy)
        detector.start()
    if spec.watchdog:
        from repro.faults import Watchdog
        watchdog = Watchdog(proxy, detector=detector).start()
    if spec.fault_plan:
        from repro.faults import FaultInjector, FaultPlan
        injector = FaultInjector(bed, proxy,
                                 FaultPlan.from_dict(spec.fault_plan))
        manager.on_measure_start.append(injector.arm)
    sampler = None
    if spec.sample_us is not None:
        from repro.obs import MetricSampler, register_standard_probes
        sampler = MetricSampler(bed.engine, interval_us=spec.sample_us,
                                profiler=bed.profiler)
        register_standard_probes(sampler, bed, proxy)
        # Client-measured completion rate, windowable around fault
        # events (manager.callers is filled in before traffic starts).
        sampler.add_rate("client_goodput_cps", lambda: sum(
            p.calls_completed for p in manager.callers))
        if detector is not None:
            for name, fn in detector.gauge_probes().items():
                sampler.add_gauge(name, fn)
        if watchdog is not None:
            for name, fn in watchdog.gauge_probes().items():
                sampler.add_gauge(name, fn)
        sampler.start()
    # Every per-call object dies by reference count (DESIGN.md §3c, guarded
    # by tests/test_object_lifetimes.py): the collector has nothing to find.
    collecting = gc.isenabled()
    gc.disable()
    try:
        result = manager.run()
    finally:
        if collecting:
            gc.enable()
    for component in (detector, watchdog):
        if component is not None:
            component.stop()
    if detector is not None or watchdog is not None or injector is not None:
        result.faults = {
            "plan": spec.fault_plan or {},
            "injected": list(injector.log) if injector else [],
            "deadlocks": list(detector.detections) if detector else [],
            "restarts": list(watchdog.restarts) if watchdog else [],
        }
    if sampler is not None:
        sampler.stop()
        metrics = sampler.to_dict()
        metrics["window_us"] = list(manager.measured_window)
        result.metrics = metrics
    result.proxy = proxy  # expose server-side state to the harness
    result.testbed = bed
    result.tracer = bed.tracer  # live; None unless spec.trace
    result.causal = bed.causal  # live; None unless spec.causal
    result.journeys = []
    if bed.causal is not None:
        from repro.obs import aggregate_journeys, build_journeys
        journeys = build_journeys(bed.causal,
                                  window=manager.measured_window)
        result.journeys = journeys
        result.attribution = aggregate_journeys(journeys)
    return result


def figure_specs(fd_cache: bool, idle_strategy: str,
                 series=("tcp-50", "tcp-500", "tcp-persistent", "udp"),
                 clients=(100, 500, 1000), seed: int = 1,
                 **spec_overrides):
    """The flat list of specs making up one figure grid (row-major)."""
    return [ExperimentSpec(series=name, clients=count, fd_cache=fd_cache,
                           idle_strategy=idle_strategy, seed=seed,
                           **spec_overrides)
            for name in series for count in clients]
