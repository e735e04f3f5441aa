"""The overload-control subsystem: controllers, open-loop load, and the
rejection fast path — plus the collapse/recovery acceptance sweep."""

import dataclasses
import json
import random

import pytest

from repro.analysis.cache import ResultCache, spec_key
from repro.analysis.experiments import run_cell
from repro.analysis.runner import run_cells
from repro.analysis.overload import capacity_spec, overload_spec
from repro.clients.openloop import OpenLoopDriver
from repro.clients.workload import BenchmarkResult
from repro.overload import (
    LocalOccupancyController,
    OverloadController,
    WindowController,
    build_controller,
)
from repro.proxy.config import ProxyConfig
from repro.sim.engine import Engine
from repro.sip.parser import parse_message

from conftest import drive

from test_proxy_core import alice, bob, make_core, register


# ======================================================================
# controller construction and config plumbing
# ======================================================================
class TestBuildController:
    def test_none_is_no_controller(self):
        assert build_controller("none") is None

    def test_known_names(self):
        assert isinstance(build_controller("local-occupancy"),
                          LocalOccupancyController)
        assert isinstance(build_controller("window"), WindowController)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            build_controller("global-occupancy")

    def test_config_validates_controller_name(self):
        with pytest.raises(ValueError):
            ProxyConfig(overload_controller="drop-all").validate()

    def test_window_controller_requires_stateful(self):
        with pytest.raises(ValueError):
            ProxyConfig(overload_controller="window",
                        stateful=False).validate()
        ProxyConfig(overload_controller="window", stateful=True).validate()


# ======================================================================
# control laws (pure unit tests, no simulation)
# ======================================================================
class TestLocalOccupancyLaw:
    def test_admits_everything_at_full_fraction(self):
        ctrl = LocalOccupancyController()
        assert all(ctrl.admit(0.0, "s") for __ in range(100))

    def test_token_accumulator_is_deterministic(self):
        """fraction=0.5 admits exactly every second INVITE — no RNG."""
        ctrl = LocalOccupancyController()
        ctrl.accept_fraction = 0.5
        decisions = [ctrl.admit(0.0, "s") for __ in range(10)]
        assert decisions == [False, True] * 5
        ctrl2 = LocalOccupancyController()
        ctrl2.accept_fraction = 0.5
        assert [ctrl2.admit(0.0, "s") for __ in range(10)] == decisions

    def test_overload_shrinks_fraction_and_recovery_grows_it(self):
        ctrl = LocalOccupancyController()
        ctrl.update(occupancy=1.0, queue_fill=0.0)   # rho > target
        shrunk = ctrl.accept_fraction
        assert shrunk < 1.0
        for __ in range(40):
            ctrl.update(occupancy=0.2, queue_fill=0.0)
        assert ctrl.accept_fraction == 1.0

    def test_growth_is_capped_per_tick(self):
        ctrl = LocalOccupancyController()
        ctrl.accept_fraction = 0.4
        ctrl.update(occupancy=0.01, queue_fill=0.0)
        assert ctrl.accept_fraction == pytest.approx(0.4 * ctrl.max_growth)

    def test_queue_panic_overrides_occupancy(self):
        ctrl = LocalOccupancyController()
        ctrl.update(occupancy=0.1, queue_fill=0.9)
        assert ctrl.accept_fraction == pytest.approx(ctrl.queue_backoff)

    def test_fraction_never_below_floor(self):
        ctrl = LocalOccupancyController()
        for __ in range(100):
            ctrl.update(occupancy=1.0, queue_fill=1.0)
        assert ctrl.accept_fraction == ctrl.min_accept


class TestWindowLaw:
    def test_aimd_updates(self):
        ctrl = WindowController()
        start = ctrl.window
        ctrl.update(occupancy=0.2, queue_fill=0.0)
        assert ctrl.window == start + ctrl.increase
        ctrl.update(occupancy=0.99, queue_fill=0.0)
        assert ctrl.window == pytest.approx(
            (start + ctrl.increase) * ctrl.decrease)

    def test_admission_bounded_by_inflight(self):
        ctrl = WindowController()
        ctrl.window = 2.0
        src = "conn-1"
        assert ctrl.admit(0.0, src)
        ctrl.note_admitted(src)
        assert ctrl.admit(0.0, src)
        ctrl.note_admitted(src)
        assert not ctrl.admit(0.0, src)          # window full
        assert ctrl.admit(0.0, "conn-2")         # per-source, not global
        ctrl.note_done(src)
        assert ctrl.admit(0.0, src)

    def test_failed_call_shrinks_window_immediately(self):
        ctrl = WindowController()
        ctrl.note_admitted("s")
        before = ctrl.window
        ctrl.note_done("s", success=False)
        assert ctrl.window == pytest.approx(before * ctrl.decrease)

    def test_forget_source_releases_slots(self):
        ctrl = WindowController()
        ctrl.window = 1.0
        ctrl.note_admitted("dead-conn")
        assert not ctrl.admit(0.0, "dead-conn")
        ctrl.forget_source("dead-conn")
        assert ctrl.admit(0.0, "dead-conn")
        assert ctrl.inflight_total() == 0

    def test_window_never_leaves_bounds(self):
        ctrl = WindowController()
        for __ in range(200):
            ctrl.update(occupancy=1.0, queue_fill=1.0)
        assert ctrl.window == ctrl.window_min
        for __ in range(1000):
            ctrl.update(occupancy=0.0, queue_fill=0.0)
        assert ctrl.window == ctrl.window_max


# ======================================================================
# the rejection fast path (satellite: cheap, stateless 503)
# ======================================================================
class _RejectAll(OverloadController):
    def admit(self, now, source):
        return False


class TestRejectionFastPath:
    def invite_cost(self, engine, core, text):
        """Simulated CPU charged to process ``text`` once."""
        t0 = engine.now
        actions = drive(engine, core.process(text, ("client1", 20000)))
        return engine.now - t0, actions

    def test_503_charges_less_cpu_and_creates_no_state(self, engine):
        admit_core = make_core(engine)
        register(engine, admit_core, bob(), ("client2", 40000))
        invite = alice().invite("bob").render()
        full_cost, __ = self.invite_cost(engine, admit_core, invite)
        assert len(admit_core.txn_table) == 1

        reject_core = make_core(engine)
        reject_core.controller = _RejectAll()
        register(engine, reject_core, bob(), ("client2", 40000))
        reject_cost, actions = self.invite_cost(engine, reject_core, invite)

        # The whole point: rejection is a fraction of full processing.
        assert reject_cost < full_cost / 2.0
        # ... and leaves nothing behind.
        assert len(reject_core.txn_table) == 0
        assert len(reject_core.timer_list) == 0
        assert reject_core.stats.invites_rejected == 1
        assert reject_core.stats.transactions_created == 0
        # The caller gets a well-formed 503 with Retry-After.
        assert len(actions) == 1
        reply = parse_message(actions[0].text)
        assert reply.status == 503
        assert reply.get("Retry-After") == "1"
        assert reply.cseq.method == "INVITE"

    def test_non_invites_bypass_admission(self, engine):
        core = make_core(engine)
        core.controller = _RejectAll()
        actions = register(engine, core, bob(), ("client2", 40000))
        assert parse_message(actions[0].text).status == 200
        assert core.stats.invites_rejected == 0

    def test_no_controller_means_no_rejections(self, engine):
        core = make_core(engine)
        register(engine, core, bob(), ("client2", 40000))
        invite = alice().invite("bob")
        drive(engine, core.process(invite.render(), ("client1", 20000)))
        assert core.stats.invites_rejected == 0


# ======================================================================
# the open-loop driver
# ======================================================================
class _StubCaller:
    def __init__(self, engine):
        self.engine = engine
        self.arrival_times = []

    def start_call(self):
        self.arrival_times.append(self.engine.now)


class TestOpenLoopDriver:
    def run_driver(self, seed=7, offered_cps=1000.0, until_us=100_000.0,
                   n_callers=3):
        engine = Engine()
        callers = [_StubCaller(engine) for __ in range(n_callers)]
        driver = OpenLoopDriver(engine, callers, offered_cps,
                                random.Random(seed)).start()
        engine.run(until=until_us)
        driver.stop()
        return driver, callers

    def test_poisson_arrivals_hit_the_configured_rate(self):
        driver, __ = self.run_driver(offered_cps=1000.0, until_us=500_000.0)
        # 500 expected; Poisson sigma ~22 — accept a generous band.
        assert 400 <= driver.arrivals <= 600

    def test_round_robin_across_callers(self):
        driver, callers = self.run_driver(n_callers=3)
        counts = [len(c.arrival_times) for c in callers]
        assert sum(counts) == driver.arrivals
        assert max(counts) - min(counts) <= 1

    def test_same_seed_same_schedule(self):
        __, callers_a = self.run_driver(seed=11)
        __, callers_b = self.run_driver(seed=11)
        assert [c.arrival_times for c in callers_a] == \
            [c.arrival_times for c in callers_b]

    def test_stop_halts_arrivals(self):
        engine = Engine()
        caller = _StubCaller(engine)
        driver = OpenLoopDriver(engine, [caller], 1000.0,
                                random.Random(3)).start()
        engine.run(until=50_000.0)
        driver.stop()
        seen = len(caller.arrival_times)
        engine.run(until=200_000.0)
        assert len(caller.arrival_times) == seen

    def test_invalid_args_rejected(self):
        engine = Engine()
        with pytest.raises(ValueError):
            OpenLoopDriver(engine, [_StubCaller(engine)], 0.0,
                           random.Random(1))
        with pytest.raises(ValueError):
            OpenLoopDriver(engine, [], 100.0, random.Random(1))


# ======================================================================
# open-loop cells end to end
# ======================================================================
SMALL = dict(clients=8, workers=4, warmup_us=60_000.0,
             measure_us=150_000.0, scale_windows=False)


class TestOpenLoopCells:
    def test_open_loop_cell_produces_goodput(self):
        result = run_cell(overload_spec("udp", offered_cps=800.0,
                                        controller="none", **SMALL))
        assert result.offered_cps == 800.0
        assert result.calls_attempted > 0
        assert result.goodput_cps > 0
        assert result.rejections_503 == 0

    def test_controller_cell_sheds_with_503_under_pressure(self):
        result = run_cell(overload_spec(
            "udp", offered_cps=20_000.0, controller="local-occupancy",
            **SMALL))
        assert result.rejections_503 > 0
        assert result.proxy_stats["invites_rejected"] == \
            result.rejections_503

    def test_sampled_overload_cell_is_bit_identical(self):
        spec = overload_spec("udp", offered_cps=2000.0,
                             controller="local-occupancy", **SMALL)
        plain = run_cell(spec)
        sampled_spec = dataclasses.replace(spec, sample_us=10_000.0)
        sampled = run_cell(sampled_spec)
        assert sampled.metrics["samples"] > 0
        assert "overload_accept_fraction" in sampled.metrics["series"]
        assert "reject_503_rate" in sampled.metrics["series"]
        for field in ("throughput_ops_s", "ops", "goodput_cps",
                      "calls_attempted", "calls_completed",
                      "rejections_503", "client_retransmissions",
                      "cpu_utilization"):
            assert getattr(sampled, field) == getattr(plain, field), field
        assert sampled.proxy_stats == plain.proxy_stats


# ======================================================================
# cache round-trip of the new result fields
# ======================================================================
class TestOverloadResultCaching:
    def test_result_round_trips_through_json(self):
        result = run_cell(overload_spec("udp", offered_cps=800.0,
                                        controller="local-occupancy",
                                        **SMALL))
        payload = json.loads(json.dumps(dataclasses.asdict(result)))
        rebuilt = BenchmarkResult(**payload)
        for field in ("goodput_cps", "offered_cps", "calls_attempted",
                      "rejections_503", "client_retransmissions"):
            assert getattr(rebuilt, field) == getattr(result, field), field

    def test_cache_serves_identical_overload_result(self, tmp_path):
        spec = overload_spec("udp", offered_cps=800.0,
                             controller="local-occupancy", **SMALL)
        cache = ResultCache(tmp_path)
        key = spec_key(spec)
        assert key is not None  # overload specs must be cacheable
        result = run_cell(spec)
        cache.put(key, spec, dataclasses.asdict(result))
        served = BenchmarkResult(**cache.get(key))
        assert served.goodput_cps == result.goodput_cps
        assert served.rejections_503 == result.rejections_503
        assert served.offered_cps == result.offered_cps

    def test_controller_and_rate_distinguish_cache_keys(self):
        base = overload_spec("udp", offered_cps=800.0, controller="none",
                             **SMALL)
        other_ctrl = dataclasses.replace(base, controller="local-occupancy")
        other_rate = dataclasses.replace(base, offered_cps=900.0)
        keys = {spec_key(base), spec_key(other_ctrl), spec_key(other_rate)}
        assert len(keys) == 3


# ======================================================================
# the acceptance sweep: collapse without control, recovery with it
# ======================================================================
@pytest.mark.slow
class TestCollapseAndRecovery:
    def test_udp_collapse_and_occupancy_recovery(self):
        kw = dict(clients=20, workers=4, warmup_us=150_000.0,
                  measure_us=300_000.0, scale_windows=False)
        cap = run_cell(capacity_spec("udp", **kw))
        capacity_cps = cap.throughput_ops_s / 2.0
        assert capacity_cps > 0

        # The three offered loads are independent cells: the runner runs
        # them side by side.
        baseline_1x, baseline_2x, controlled_2x = (
            outcome.result for outcome in run_cells([
                overload_spec("udp", offered_cps=factor * capacity_cps,
                              controller=controller, **kw)
                for factor, controller in ((1.0, "none"), (2.0, "none"),
                                           (2.0, "local-occupancy"))]))

        # Collapse: past capacity the uncontrolled proxy loses goodput
        # to retransmission amplification (measurably, not marginally).
        assert baseline_2x.goodput_cps < 0.8 * baseline_1x.goodput_cps
        assert baseline_2x.client_retransmissions > \
            baseline_1x.client_retransmissions

        # Recovery: occupancy control sheds the excess with 503s and
        # holds goodput within 20% of the 1x value.
        assert controlled_2x.goodput_cps >= 0.8 * baseline_1x.goodput_cps
        assert controlled_2x.rejections_503 > 0
