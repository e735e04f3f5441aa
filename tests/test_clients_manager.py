"""Unit tests for workload specs and the benchmark manager."""

import dataclasses
import random

import pytest

from repro import ProxyConfig, Testbed, Workload, build_proxy
from repro.analysis.experiments import ExperimentSpec, run_cell
from repro.clients import BenchmarkManager
from repro.clients.manager import REGISTER_STAGGER_US
from repro.clients.workload import BenchmarkResult, percentiles
from repro.sim.rng import RngStreams
from repro.sip.builder import BRANCH_MAGIC, MessageBuilder


class TestWorkload:
    def test_defaults_are_valid(self):
        Workload().validate()

    @pytest.mark.parametrize("kwargs", [
        dict(clients=0),
        dict(ops_per_conn=0),
        dict(measure_us=0),
        dict(warmup_us=-1.0),
        dict(register_deadline_us=0),
        dict(offered_cps=-5.0),
        dict(warmup_us=float("nan")),
        dict(warmup_us=float("inf")),
        dict(measure_us=float("nan")),
        dict(measure_us=float("inf")),
        dict(register_deadline_us=float("nan")),
        dict(register_deadline_us=float("inf")),
        dict(offered_cps=float("nan")),
        dict(offered_cps=float("inf")),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Workload(**kwargs).validate()

    def test_open_loop_valid(self):
        Workload(offered_cps=500.0).validate()


class TestManager:
    def make(self, clients=4, **workload_kwargs):
        bed = Testbed(seed=2)
        proxy = build_proxy(bed.server,
                            ProxyConfig(transport="udp", workers=4)).start()
        workload = Workload(clients=clients, warmup_us=20_000.0,
                            measure_us=80_000.0, **workload_kwargs)
        return bed, proxy, BenchmarkManager(bed, proxy, workload)

    def test_setup_creates_caller_callee_pairs(self):
        bed, __, manager = self.make(clients=6)
        manager.setup_phones()
        assert len(manager.callers) == 6
        assert len(manager.callees) == 6
        # Spread across the three client machines.
        machines = {phone.machine.name for phone in manager.callers}
        assert machines == {"client1", "client2", "client3"}

    def test_phones_share_one_identifier_stream(self):
        """Every phone's builder draws from the one ``phone-ids`` stream;
        the registration stagger keeps its own ``phones`` stream."""
        bed, __, manager = self.make(clients=3)
        stagger = RngStreams(2).stream("phones")
        manager.setup_phones()
        ids = bed.rng.stream("phone-ids")
        for phone in manager.callers + manager.callees:
            assert phone.builder.rng is ids
        assert [c.start_delay_us for c in manager.callers] == \
            [stagger.uniform(0.0, REGISTER_STAGGER_US) for __ in range(3)]

    def test_datagram_phones_refuse_ops_per_conn(self):
        """Connection reuse means nothing to a UDP phone: a UDP cell given
        ``ops_per_conn`` fails at setup instead of ignoring it."""
        __, __, manager = self.make(ops_per_conn=5)
        with pytest.raises(TypeError, match="ops_per_conn"):
            manager.setup_phones()

    def test_caller_and_callee_on_different_machines(self):
        bed, __, manager = self.make(clients=3)
        manager.setup_phones()
        for caller, callee in zip(manager.callers, manager.callees):
            assert caller.machine.name != callee.machine.name

    def test_run_returns_measured_result(self):
        __, __, manager = self.make()
        result = manager.run()
        assert isinstance(result, BenchmarkResult)
        assert result.ops > 0
        assert result.duration_us == pytest.approx(80_000.0)
        assert result.throughput_ops_s == pytest.approx(
            result.ops / (result.duration_us / 1e6))
        assert 0.0 < result.cpu_utilization <= 1.01

    def test_measurement_excludes_warmup_and_registration(self):
        __, proxy, manager = self.make()
        result = manager.run()
        # Registrations happened but are not in the measured delta.
        assert proxy.stats.registrations >= 8
        assert result.proxy_stats["registrations"] == 0

    def test_registration_failure_raises(self):
        bed = Testbed(seed=2)
        # No proxy started: nothing will answer the REGISTERs.
        proxy = build_proxy(bed.server,
                            ProxyConfig(transport="udp", workers=4))
        # (note: not .start()ed)
        workload = Workload(clients=2, warmup_us=10_000.0,
                            measure_us=10_000.0,
                            register_deadline_us=300_000.0)
        manager = BenchmarkManager(bed, proxy, workload)
        with pytest.raises(RuntimeError, match="failed to register"):
            manager.run()

    def test_phones_and_timer_process_follow_the_proxys_t1(self):
        bed = Testbed(seed=2, trace=True)
        proxy = build_proxy(bed.server, ProxyConfig(
            transport="udp", workers=2, sip_t1_us=20_000.0))
        assert proxy.config.sip_t2_us == 160_000.0
        assert proxy.config.timer_tick_us == 5_000.0
        manager = BenchmarkManager(bed, proxy, Workload(clients=1))
        manager.setup_phones()
        for phone in manager.callers + manager.callees:
            assert phone.t1_us == 20_000.0
        proxy.start()
        bed.engine.run(until=12_000.0)
        # The timer process sleeps one tick between passes: two passes
        # fit in 12 ms at 5 ms (none at the uncompressed 100 ms).
        ticks = [span.start_us for span in bed.tracer.events()
                 if span.name == "timer_fire"]
        assert len(ticks) == 2 and ticks[0] == 5_000.0

    def test_latency_summary_covers_every_sample(self):
        """One caller completes more than 4096 calls; the setup latency is
        the exact summary of all of them, not a bucketed estimate."""
        bed = Testbed(seed=2)
        proxy = build_proxy(bed.server,
                            ProxyConfig(transport="udp", workers=2)).start()
        manager = BenchmarkManager(bed, proxy, Workload(
            clients=1, warmup_us=0.0, measure_us=3_000_000.0))
        result = manager.run()
        samples = manager.callers[0].setup_latencies_us
        assert len(samples) > 4096
        assert result.setup_latency_us == percentiles(samples)

    def test_stop_halts_phones(self):
        __, __, manager = self.make()
        manager.run()
        manager.stop()
        assert all(not p.alive
                   for phone in manager.callers
                   for p in phone.processes)


@pytest.mark.parametrize("series", ["udp", "tcp-persistent"])
def test_identifiers_never_reach_a_result(series, monkeypatch):
    """Branches, tags and Call-IDs are fixed-width hex that no simulated
    number reads: drawn from another generator, they leave every field of
    the result as it was.  This is what lets all phones share one stream."""
    spec = ExperimentSpec(
        series=series, clients=8, workers=4, seed=1, warmup_us=30_000.0,
        measure_us=100_000.0, idle_timeout_us=60_000.0, scale_windows=False)
    drawn = dataclasses.asdict(run_cell(spec))
    other = random.Random(7)
    draws = {"new_branch": 0, "new_tag": 0, "new_call_id": 0}

    def hex_digits(name, bits):
        draws[name] += 1
        return f"{other.getrandbits(bits):0{bits // 4}x}"

    monkeypatch.setattr(
        MessageBuilder, "new_branch",
        lambda self: BRANCH_MAGIC + hex_digits("new_branch", 48))
    monkeypatch.setattr(MessageBuilder, "new_tag",
                        lambda self: hex_digits("new_tag", 32))
    monkeypatch.setattr(
        MessageBuilder, "new_call_id",
        lambda self: f"{hex_digits('new_call_id', 48)}@{self.host}")
    redrawn = dataclasses.asdict(run_cell(spec))
    assert all(draws.values()), draws
    assert redrawn == drawn
