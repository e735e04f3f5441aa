"""The benchmark manager (§4.2).

Orchestrates an experiment exactly as the paper describes: create all
phones, have every phone register (phase 1, excluded from results),
synchronize the callers, then measure completed transactions per second
over a window of the call phase (phase 2).
"""

from typing import List, Optional

from repro.clients.openloop import OpenLoopDriver
from repro.clients.phone import Phone
from repro.clients.workload import BenchmarkResult, Workload, percentiles
from repro.sim.events import Event

CALLER_PORT_BASE = 20000
CALLEE_PORT_BASE = 40000
REGISTER_STAGGER_US = 200_000.0


class BenchmarkManager:
    """Runs one workload cell against one started proxy."""

    def __init__(self, testbed, proxy, workload: Workload) -> None:
        workload.validate()
        self.testbed = testbed
        self.proxy = proxy
        self.workload = workload
        self.engine = testbed.engine
        self.go_event = Event(self.engine, name="manager.go")
        self.callers: List[Phone] = []
        self.callees: List[Phone] = []
        self.driver: Optional[OpenLoopDriver] = None
        self.measured_window: Optional[tuple] = None
        #: callbacks fired with t0 when the measurement window opens
        #: (e.g. :meth:`repro.faults.FaultInjector.arm`)
        self.on_measure_start: List = []

    # ------------------------------------------------------------------
    def setup_phones(self) -> None:
        """Create and start caller/callee pairs across the client machines."""
        workload = self.workload
        transport = self.proxy.config.transport
        phone_transport = "tcp" if transport == "tcp-threaded" else transport
        rng = self.testbed.rng.stream("phones")
        # every phone draws its branches, tags and Call-IDs from one
        # stream: they are fixed-width hex that no result reads
        ids = self.testbed.rng.stream("phone-ids")
        for index in range(workload.clients):
            stagger = rng.uniform(0.0, REGISTER_STAGGER_US)
            common = dict(
                domain=self.proxy.config.domain,
                transport=phone_transport,
                proxy_addr=self.testbed.server.address,
                proxy_port=self.proxy.config.port,
                ops_per_conn=workload.ops_per_conn,
                # the phones run the proxy's T1
                t1_us=self.proxy.config.sip_t1_us,
                open_loop=workload.offered_cps > 0,
            )
            caller = Phone(
                machine=self.testbed.client_for(index),
                user=f"caller{index}",
                port=CALLER_PORT_BASE + index,
                rng=ids,
                role="caller",
                peer_user=f"callee{index}",
                go_event=self.go_event,
                start_delay_us=stagger,
                **common,
            )
            callee = Phone(
                machine=self.testbed.client_for(index + 1),
                user=f"callee{index}",
                port=CALLEE_PORT_BASE + index,
                rng=ids,
                role="callee",
                start_delay_us=stagger,
                **common,
            )
            self.callers.append(caller.start())
            self.callees.append(callee.start())

    # ------------------------------------------------------------------
    def run(self) -> BenchmarkResult:
        """Execute both phases and return the measured result."""
        if not self.callers:
            self.setup_phones()
        self._registration_phase()
        self.go_event.fire(None)
        engine = self.engine
        if self.workload.offered_cps > 0:
            self.driver = OpenLoopDriver(
                engine, self.callers, self.workload.offered_cps,
                self.testbed.rng.stream("openloop")).start()
        engine.run(until=engine.now + self.workload.warmup_us)
        # -- measured window ------------------------------------------------
        t0 = engine.now
        for hook in self.on_measure_start:
            hook(t0)
        ops0 = self._total_ops()
        completed0 = sum(p.calls_completed for p in self.callers)
        attempted0 = sum(p.calls_attempted for p in self.callers)
        rtx0 = self._total_retransmissions()
        stats0 = self.proxy.stats.snapshot()
        busy0 = self.testbed.server.scheduler.total_busy_us()
        profile0 = (self.testbed.profiler.snapshot()
                    if self.testbed.profiler is not None else {})
        engine.run(until=t0 + self.workload.measure_us)
        duration = engine.now - t0
        #: the measured window in simulated time, for windowing sampled
        #: metric series (e.g. :func:`repro.obs.metrics.series_window_mean`)
        self.measured_window = (t0, engine.now)
        ops = self._total_ops() - ops0
        profile = (self.testbed.profiler.delta(profile0)
                   if self.testbed.profiler is not None else {})
        stats_delta = self.proxy.stats.delta(stats0)
        completed = sum(p.calls_completed for p in self.callers) - completed0
        return BenchmarkResult(
            throughput_ops_s=ops / (duration / 1e6) if duration > 0 else 0.0,
            ops=ops,
            duration_us=duration,
            calls_completed=sum(p.calls_completed for p in self.callers),
            calls_failed=sum(p.calls_failed for p in self.callers),
            registration_failures=sum(
                p.registration_failures
                for p in self.callers + self.callees),
            cpu_utilization=self.testbed.server.cpu_utilization(
                busy0, duration),
            proxy_stats=stats_delta,
            profile=profile,
            setup_latency_us=percentiles(
                [s for p in self.callers for s in p.setup_latencies_us]),
            processing_latency_us=percentiles(
                [s for p in self.callers for s in p.processing_latencies_us]),
            proxy_totals=self.proxy.stats.snapshot(),
            open_conns=len(getattr(self.proxy, "conn_table", ())),
            goodput_cps=completed / (duration / 1e6) if duration > 0 else 0.0,
            offered_cps=self.workload.offered_cps,
            calls_attempted=(sum(p.calls_attempted for p in self.callers)
                             - attempted0),
            rejections_503=stats_delta.get("invites_rejected", 0),
            client_retransmissions=self._total_retransmissions() - rtx0,
        )

    def stop(self) -> None:
        if self.driver is not None:
            self.driver.stop()
        for phone in self.callers + self.callees:
            phone.stop()

    # ------------------------------------------------------------------
    def _registration_phase(self) -> None:
        engine = self.engine
        deadline = engine.now + self.workload.register_deadline_us
        phones = self.callers + self.callees
        while engine.now < deadline:
            if all(p.registered for p in phones):
                return
            engine.run(until=min(engine.now + 100_000.0, deadline))
        unregistered = sum(1 for p in phones if not p.registered)
        if unregistered:
            raise RuntimeError(
                f"{unregistered}/{len(phones)} phones failed to register "
                f"within {self.workload.register_deadline_us / 1e6:.1f}s")

    def _total_ops(self) -> int:
        return sum(p.ops_completed for p in self.callers)

    def _total_retransmissions(self) -> int:
        """UAC retransmissions across all phones (callees retransmit
        REGISTERs too, and their 200-OK repeats ride the same counter on
        the server side — here we count client *requests* only)."""
        return sum(p.retransmissions for p in self.callers + self.callees)
