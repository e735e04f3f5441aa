"""Unit tests for the smaller supporting pieces: periodic timers, tick
sources, machine, stats, config, rng."""

import pytest

from repro.kernel.machine import Machine
from repro.kernel.poller import TickSource
from repro.kernel.timerwheel import PeriodicTimer
from repro.proxy.config import ProxyConfig
from repro.proxy.costs import CostModel
from repro.proxy.stats import ProxyStats
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams


class TestPeriodicTimer:
    def test_fires_repeatedly_until_stopped(self, engine):
        fired = []
        timer = PeriodicTimer(engine, 100.0, lambda: fired.append(engine.now))
        timer.start()
        engine.schedule(350.0, timer.stop)
        engine.run(until=1000.0)
        assert fired == [100.0, 200.0, 300.0]

    def test_bad_period_rejected(self, engine):
        with pytest.raises(ValueError):
            PeriodicTimer(engine, 0.0, lambda: None)

    def test_exception_in_callback_stops_timer(self, engine):
        fired = []

        def boom():
            fired.append(engine.now)
            raise RuntimeError("callback failed")

        timer = PeriodicTimer(engine, 100.0, boom)
        timer.start()
        with pytest.raises(RuntimeError):
            engine.run(until=1000.0)
        # No zombie reschedule: the timer is stopped, nothing pending.
        assert not timer.running
        assert fired == [100.0]
        engine.run(until=2000.0)
        assert fired == [100.0]

    def test_callback_may_stop_its_own_timer(self, engine):
        timer = PeriodicTimer(engine, 100.0, lambda: timer.stop())
        timer.start()
        engine.run(until=1000.0)
        assert not timer.running
        assert engine.pending == 0


class TestTickSource:
    def test_becomes_readable_each_period(self, engine):
        tick = TickSource(engine, 1000.0)
        assert not tick.readable()
        engine.run(until=1500.0)
        assert tick.readable()
        tick.consume()
        assert not tick.readable()
        engine.run(until=2500.0)
        assert tick.readable()

    def test_signal_fires_on_tick(self, engine):
        tick = TickSource(engine, 1000.0)
        woken = []
        tick.readable_signal.listen(lambda v: woken.append(engine.now))
        engine.run(until=2500.0)
        assert woken == [1000.0, 2000.0]

    def test_bad_period_rejected(self, engine):
        with pytest.raises(ValueError):
            TickSource(engine, 0.0)


class TestMachine:
    def test_spawn_attaches_fdtable(self, engine):
        machine = Machine(engine, "m", fd_limit=7)

        def body():
            yield from ()

        proc = machine.spawn(body(), "p")
        assert proc.fdtable is not None
        assert proc.fdtable.limit == 7
        assert proc.name == "m/p"

    def test_cpu_utilization_window(self, engine):
        from repro.sim.primitives import Compute
        machine = Machine(engine, "m", n_cores=2)

        def body():
            yield Compute(500.0, "w")

        machine.spawn(body(), "p").start()
        busy0 = machine.scheduler.total_busy_us()
        engine.run(until=1000.0)
        # 500us busy on 2 cores over 1000us = 25% (+ context switch).
        util = machine.cpu_utilization(busy0, 1000.0)
        assert util == pytest.approx(0.25, abs=0.01)


class TestProxyStats:
    def test_snapshot_delta(self):
        stats = ProxyStats()
        stats.messages_received = 10
        snap = stats.snapshot()
        stats.messages_received = 25
        stats.accepts = 3
        delta = stats.delta(snap)
        assert delta["messages_received"] == 15
        assert delta["accepts"] == 3

    def test_snapshot_keeps_float_counters(self):
        stats = ProxyStats()
        stats.messages_received = 10
        stats.cpu_busy_us = 123.5  # a future float-valued counter
        snap = stats.snapshot()
        assert snap["cpu_busy_us"] == 123.5
        stats.cpu_busy_us = 200.0
        assert stats.delta(snap)["cpu_busy_us"] == pytest.approx(76.5)

    def test_snapshot_excludes_bools(self):
        stats = ProxyStats()
        stats.degraded = True  # flag, not a counter
        assert "degraded" not in stats.snapshot()


class TestProxyConfig:
    def test_defaults_validate(self):
        ProxyConfig().validate()

    @pytest.mark.parametrize("kwargs", [
        dict(transport="smoke-signals"),
        dict(idle_strategy="forget"),
        dict(workers=0),
        dict(supervisor_nice=-30),
        dict(idle_timeout_us=0),
        dict(sip_t1_us=0.0),
        dict(sip_t1_us=-5),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ProxyConfig(**kwargs).validate()

    def test_timers_derive_from_t1(self):
        default = ProxyConfig()
        assert (default.sip_t2_us, default.timer_tick_us) == \
            (4_000_000.0, 100_000.0)  # RFC T2; the uncompressed 100 ms tick
        compressed = ProxyConfig(sip_t1_us=100_000.0)
        assert (compressed.sip_t2_us, compressed.timer_tick_us) == \
            (800_000.0, 25_000.0)
        with pytest.raises(AttributeError):
            default.sip_t2_us = 1.0  # not a field: set T1 instead

    def test_reliability_classification(self):
        assert not ProxyConfig(transport="udp").reliable_transport
        assert ProxyConfig(transport="tcp").reliable_transport
        assert ProxyConfig(transport="sctp").reliable_transport
        assert ProxyConfig(transport="tcp-threaded").reliable_transport


class TestCostModel:
    def test_parse_cost_grows_with_size_and_phones(self):
        costs = CostModel()
        assert costs.parse_cost(800) > costs.parse_cost(200)
        assert costs.parse_cost(500, registered_phones=2000) > \
            costs.parse_cost(500, registered_phones=0)

    def test_fd_request_cost_grows_with_table(self):
        costs = CostModel()
        assert costs.fd_request_cost(2000) > costs.fd_request_cost(0)


class TestRngStreams:
    def test_streams_independent_and_deterministic(self):
        a = RngStreams(1)
        b = RngStreams(1)
        assert a.stream("x").random() == b.stream("x").random()
        c = RngStreams(1)
        assert c.stream("x").random() != c.stream("y").random()

    def test_different_seeds_differ(self):
        assert RngStreams(1).stream("x").random() != \
            RngStreams(2).stream("x").random()

    def test_stream_is_cached(self):
        streams = RngStreams(1)
        assert streams.stream("x") is streams.stream("x")
