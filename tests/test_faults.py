"""The fault subsystem: plan DSL, injector, deadlock detector, watchdog.

Integration tests reuse the §6 wedge configuration from
test_integration_deadlock.py: tiny IPC buffers + blocking supervisor
sends under connection churn reliably form the supervisor↔worker cycle.
"""

import json
import re

import pytest

from repro import ProxyConfig, Testbed, Workload, build_proxy
from repro.clients import BenchmarkManager
from repro.faults import (DeadlockDetector, FaultInjector, FaultPlan,
                          FaultPlanError, Watchdog, WorkerCrash)
from repro.faults import deadlock
from repro.faults.deadlock import _sccs


# ======================================================================
# plan DSL
# ======================================================================
def test_plan_round_trips_through_json():
    plan = FaultPlan([WorkerCrash(start_us=70_000, worker=1),
                      WorkerCrash(start_us=90_000, worker=2)])
    payload = json.loads(json.dumps(plan.to_dict()))
    assert FaultPlan.from_dict(payload).to_dict() == plan.to_dict()
    # The JSON shape result-cache keys and the fig-faults output carry.
    assert json.dumps(plan.to_dict()["events"][0]) == \
        '{"start_us": 70000, "worker": 1, "kind": "worker-crash"}'


def test_plan_orders_events_by_start_time():
    plan = FaultPlan([WorkerCrash(start_us=500), WorkerCrash(start_us=100)])
    assert [event.start_us for event in plan] == [100, 500]


@pytest.mark.parametrize("events", [
    [WorkerCrash(start_us=-1)],
    [WorkerCrash(start_us=0, worker=-1)],
    ["worker-crash"],  # not an event object
    [WorkerCrash(start_us=float("nan"))],  # would never fire
    [WorkerCrash(start_us=float("inf"))],
    [WorkerCrash(start_us="5")],
    [WorkerCrash(start_us=0, worker=0.5)],
    [WorkerCrash(start_us=0, worker=True)],
])
def test_plan_validation_rejects(events):
    with pytest.raises(FaultPlanError):
        FaultPlan(events)


def test_from_dict_rejects_a_worker_given_as_text():
    with pytest.raises(FaultPlanError, match="worker must be an int"):
        FaultPlan.from_dict({"events": [
            {"kind": "worker-crash", "start_us": 0, "worker": "1"}]})


@pytest.mark.parametrize("entry, match", [
    ({"kind": kind, "start_us": 0}, f"unknown fault kind '{kind}'")
    for kind in ("meteor", "loss-burst", "latency-window", "partition",
                 "worker-hang", "ipc-stall")
] + [({"kind": "worker-crash", "start_us": 0, "blast_radius": 3},
      "worker-crash: unknown fields ['blast_radius']")],
    ids=lambda value: value["kind"] if isinstance(value, dict) else "")
def test_from_dict_rejects_unknown_kinds_and_fields(entry, match):
    with pytest.raises(FaultPlanError, match=re.escape(match)):
        FaultPlan.from_dict({"events": [entry]})


# ======================================================================
# injector
# ======================================================================
def test_injector_crashes_the_worker_at_its_offset():
    bed = Testbed(seed=1)
    proxy = build_proxy(bed.server, ProxyConfig(
        transport="tcp", workers=2)).start()
    t0 = bed.engine.now
    injector = FaultInjector(bed, proxy, FaultPlan(
        [WorkerCrash(start_us=10_000, worker=1)])).arm(t0)
    bed.engine.run(until=t0 + 9_999)
    assert all(proc.alive for __, proc in proxy.worker_processes())
    bed.engine.run(until=t0 + 10_001)
    assert [proc.alive for __, proc in proxy.worker_processes()] == \
        [True, False]
    assert injector.log == [{"t_us": t0 + 10_000, "action": "apply",
                             "start_us": 10_000, "worker": 1,
                             "kind": "worker-crash"}]


def test_injector_rejects_nonexistent_worker():
    bed = Testbed(seed=1)
    proxy = build_proxy(bed.server, ProxyConfig(
        transport="tcp", workers=2)).start()
    for worker in (2, 99):
        with pytest.raises(FaultPlanError,
                           match=f"TcpProxyServer has no worker {worker}"):
            FaultInjector(bed, proxy, FaultPlan(
                [WorkerCrash(start_us=0, worker=worker)]))


# ======================================================================
# deadlock detector: graph mechanics on synthetic endpoints
# ======================================================================
class _StubEndpoint:
    def __init__(self):
        self.blocked_sending_since = None
        self.blocked_receiving_since = None


def test_sccs_finds_cycles_not_chains():
    assert _sccs({"a": {"b"}, "b": {"a"}}) == [frozenset({"a", "b"})]
    assert _sccs({"a": {"b"}, "b": {"c"}}) == []          # a chain
    assert _sccs({"a": {"a"}}) == [frozenset({"a"})]      # self-wait
    three = _sccs({"a": {"b"}, "b": {"c"}, "c": {"a"}})
    assert three == [frozenset({"a", "b", "c"})]


def test_detector_ignores_one_sided_backpressure(engine):
    """A supervisor blocked on a slow-but-runnable worker is not a
    deadlock: there is no edge back."""
    sup = _StubEndpoint()
    detector = DeadlockDetector(engine)
    detector.watch(sup, "supervisor", "worker-0")
    sup.blocked_sending_since = 0.0
    engine.run(until=1.0)
    assert detector.scan() == []
    assert detector.detections == []


def test_detector_fires_once_and_refires_after_dissolve(engine):
    sup, wrk = _StubEndpoint(), _StubEndpoint()
    detector = DeadlockDetector(engine)
    detector.watch(sup, "supervisor", "worker-0")
    detector.watch(wrk, "worker-0", "supervisor")
    sup.blocked_sending_since = 0.0
    wrk.blocked_receiving_since = 0.0
    engine.run(until=1.0)
    assert len(detector.scan()) == 1
    assert detector.scan() == []              # same cycle: no re-report
    wrk.blocked_receiving_since = None        # cycle dissolves...
    assert detector.scan() == []
    wrk.blocked_receiving_since = 0.5         # ...and re-forms
    assert len(detector.scan()) == 1
    assert len(detector.detections) == 2


# ======================================================================
# the §6 cycle, end to end
# ======================================================================
def wedge_run(seed=11, watchdog=False):
    bed = Testbed(seed=seed)
    proxy = build_proxy(bed.server, ProxyConfig(
        transport="tcp", workers=2, ipc_capacity=1,
        supervisor_blocking_send=True)).start()
    detector = DeadlockDetector(bed.engine).watch_proxy(proxy).start()
    dog = (Watchdog(proxy, detector=detector).start()
           if watchdog else None)
    workload = Workload(clients=12, ops_per_conn=2, warmup_us=50_000.0,
                        measure_us=400_000.0,
                        register_deadline_us=6_000_000.0)
    manager = BenchmarkManager(bed, proxy, workload)
    manager.setup_phones()
    try:
        result = manager.run()
        ops = result.ops
    except RuntimeError:
        ops = 0  # registration never completed: the server wedged
    bed.engine.run(until=bed.engine.now + 1_000_000.0)
    return bed, proxy, detector, dog, ops


def test_detector_fires_on_the_section6_cycle():
    bed, proxy, detector, __, __ = wedge_run()
    assert len(detector.detections) == 1
    record = detector.detections[0]
    assert "supervisor" in record["members"]
    assert any(m.startswith("worker-") for m in record["members"])
    # Detection lag is bounded by one scan period: the cycle's youngest
    # edge formed within PERIOD_US of the detection timestamp... plus
    # the worker->supervisor edge may predate it, which blocked_us
    # reflects (it measures the *youngest* edge).
    assert record["blocked_us"] <= deadlock.PERIOD_US


def test_detection_timestamp_is_deterministic():
    first = wedge_run()[2].detections
    second = wedge_run()[2].detections
    assert first == second


def test_detector_quiet_on_healthy_run():
    """Ample buffers: blocking sends cause only transient backpressure,
    which must produce zero detections."""
    bed = Testbed(seed=11)
    proxy = build_proxy(bed.server, ProxyConfig(
        transport="tcp", workers=2, ipc_capacity=256,
        supervisor_blocking_send=True)).start()
    detector = DeadlockDetector(bed.engine).watch_proxy(proxy).start()
    workload = Workload(clients=8, ops_per_conn=2, warmup_us=50_000.0,
                        measure_us=200_000.0,
                        register_deadline_us=6_000_000.0)
    manager = BenchmarkManager(bed, proxy, workload)
    manager.setup_phones()
    result = manager.run()
    assert result.ops > 0
    assert detector.scans > 0
    assert detector.detections == []


def test_watchdog_recovers_the_section6_deadlock():
    bed, proxy, detector, dog, ops = wedge_run(watchdog=True)
    assert ops > 0, "watchdog failed to unwedge the server"
    assert any(r["reason"] == "deadlock" for r in dog.restarts)
    assert proxy.stats.workers_restarted >= 1
    # The supervisor is no longer blocked on any assign channel.
    assert all(chan.a.blocked_sending_since is None
               for chan in proxy.assign_chans)


# ======================================================================
# watchdog: crash recovery through run_cell
# ======================================================================
def crash_spec(watchdog, **overrides):
    from repro.analysis.experiments import ExperimentSpec
    plan = FaultPlan([WorkerCrash(start_us=150_000.0, worker=0)])
    kw = dict(series="tcp-persistent", clients=16, seed=3, workers=4,
              warmup_us=200_000.0, measure_us=600_000.0,
              sip_t1_us=20_000.0, offered_cps=400.0, sample_us=10_000.0,
              scale_windows=False, fault_plan=plan.to_dict(),
              detect_deadlocks=True, watchdog=watchdog)
    kw.update(overrides)
    return ExperimentSpec(**kw)


def post_over_pre(result, pre_us, post_from_us):
    """Sampled client goodput after ``post_from_us`` over goodput in the
    first ``pre_us`` of the measurement window (the fault sits between)."""
    from repro.obs.metrics import series_window_mean
    t0, t_end = result.metrics["window_us"]
    pre = series_window_mean(result.metrics, "client_goodput_cps",
                             from_us=t0, to_us=t0 + pre_us)
    post = series_window_mean(result.metrics, "client_goodput_cps",
                              from_us=t0 + post_from_us, to_us=t_end)
    return post / pre


def test_worker_crash_with_watchdog_restarts_and_redispatches():
    from repro.analysis.experiments import run_cell
    result = run_cell(crash_spec(watchdog=True, fd_cache=True))
    faults = result.faults
    assert [e["kind"] for e in faults["injected"]] == ["worker-crash"]
    restarts = faults["restarts"]
    assert len(restarts) == 1 and restarts[0]["reason"] == "crash"
    assert restarts[0]["redispatched"] > 0
    # The replacement worker got a fresh process slot and fd cache.
    proxy = result.proxy
    assert proxy.stats.workers_restarted == 1
    assert all(proc.alive for __, proc in proxy.worker_processes())
    assert proxy.fd_caches[0] is not None


def test_worker_crash_without_watchdog_loses_goodput():
    """The crashed worker's share of round-robin assignments stays dark
    without recovery; with the watchdog the loss is repaired."""
    from repro.analysis.experiments import run_cell
    unprotected = post_over_pre(run_cell(crash_spec(watchdog=False)),
                                150_000.0, 350_000.0)
    protected = post_over_pre(run_cell(crash_spec(watchdog=True)),
                              150_000.0, 350_000.0)
    assert unprotected < 0.8
    assert protected >= 0.9
    assert protected > unprotected


def crash_restart_spec(series, watchdog=True):
    from repro.analysis.experiments import ExperimentSpec
    plan = FaultPlan([WorkerCrash(start_us=100_000.0, worker=2)])
    return ExperimentSpec(
        series=series, clients=16, seed=3, workers=6,
        warmup_us=150_000.0, measure_us=400_000.0, sip_t1_us=20_000.0,
        offered_cps=400.0, sample_us=10_000.0, scale_windows=False,
        fault_plan=plan.to_dict(), watchdog=watchdog)


@pytest.mark.parametrize("series", ["udp", "sctp", "tcp-threaded"])
def test_udp_worker_crash_restart(series):
    """Every flavor restarts a crashed worker from the shared template."""
    from repro.analysis.experiments import run_cell
    result = run_cell(crash_restart_spec(series))
    restarts = result.faults["restarts"]
    assert len(restarts) == 1 and restarts[0]["reason"] == "crash"
    assert result.proxy.stats.workers_restarted == 1
    assert all(proc.alive for __, proc in result.proxy.worker_processes())
    assert result.calls_completed > 0
    if series == "tcp-threaded":
        # The dead thread's connections were re-queued for its successor.
        assert restarts[0]["redispatched"] > 0


def test_threaded_crash_without_watchdog_loses_goodput():
    """As for process TCP: a dead thread's connections stay dark until
    the watchdog replaces it and re-queues them."""
    from repro.analysis.experiments import run_cell
    unprotected = post_over_pre(run_cell(
        crash_restart_spec("tcp-threaded", watchdog=False)),
        100_000.0, 250_000.0)
    protected = post_over_pre(run_cell(crash_restart_spec("tcp-threaded")),
                              100_000.0, 250_000.0)
    assert unprotected < 0.8
    assert protected >= 0.9


@pytest.mark.parametrize("transport", ["udp", "sctp", "tcp", "tcp-threaded"])
def test_every_flavor_exposes_its_workers_to_the_watchdog(transport):
    bed = Testbed(seed=1)
    proxy = build_proxy(bed.server, ProxyConfig(
        transport=transport, workers=3)).start()
    Watchdog(proxy)  # no flavor is refused
    assert [i for i, __ in proxy.worker_processes()] == [0, 1, 2]
    proxy.crash_worker(1)
    proxy.restart_worker(1)
    assert all(proc.alive for __, proc in proxy.worker_processes())
    assert proxy.stats.workers_restarted == 1


def test_sctp_reports_receive_backlog():
    """The occupancy controller's queue signal reads SCTP's receive
    buffer (it was constant)."""
    bed = Testbed(seed=1)
    proxy = build_proxy(bed.server, ProxyConfig(
        transport="sctp", workers=2, udp_rcvbuf_datagrams=8))
    assert proxy.queue_fill() == 0.0
    for n in range(4):
        proxy.socket.buffer.push((None, f"message {n}"))
    assert proxy.queue_fill() == 0.5


# ======================================================================
# the figure (slow acceptance)
# ======================================================================
@pytest.mark.slow
def test_fig_faults_recovery_ratio(tmp_path):
    """Acceptance: with the watchdog a worker-crash run recovers to
    >= 90% of pre-fault goodput; without it, it does not."""
    from repro.analysis.cache import ResultCache
    from repro.analysis.faults import render_faults_figure, run_faults_figure

    data = run_faults_figure(clients=16, workers=4, seed=3, jobs=2,
                             cache=ResultCache(tmp_path / "cache"))
    cells = data["grid"]["tcp-persistent"]
    on, off = cells["watchdog-on"], cells["watchdog-off"]
    assert on["recovery_ratio"] >= 0.9
    assert off["recovery_ratio"] < on["recovery_ratio"]
    assert len(on["restarts"]) == 1
    assert on["restarts"][0]["reason"] == "crash"
    text = render_faults_figure(data)
    assert "watchdog-on" in text and "worker-crash" in text


@pytest.mark.slow
def test_fig_faults_cli_smoke(tmp_path, monkeypatch, capsys):
    from repro.__main__ import main
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    out_json = tmp_path / "faults.json"
    assert main(["fig-faults", "--smoke", "--workers", "4", "--seed", "3",
                 "--json", str(out_json), "--jobs", "2"]) == 0
    data = json.loads(out_json.read_text())
    assert data["grid"]["tcp-persistent"]["watchdog-on"]["recovery_ratio"] \
        >= 0.9
    assert "recovery" in capsys.readouterr().out
