"""Unit tests for the multi-core weighted-fair scheduler."""

import hashlib
import sys

import pytest

from repro.sim.engine import Engine
from repro.sim.events import Event
from repro.sim.primitives import Compute, Exit, Fork, Sleep, Wait, YieldCPU
from repro.sim.process import ProcessState
from repro.kernel.scheduler import (
    NICE_0_WEIGHT,
    Scheduler,
    nice_to_weight,
)
from repro.obs.probe import Probe

from conftest import run_until_done


def make_sched(engine, cores=1, quantum=2000.0, ctx=0.0, granularity=0.0):
    return Scheduler(engine, n_cores=cores, quantum_us=quantum,
                     ctx_switch_us=ctx, granularity_us=granularity)


def hog(us, label="hog", done_log=None, engine=None, tag=None):
    def body():
        yield Compute(us, label)
        if done_log is not None:
            done_log.append((tag, engine.now))
    return body()


def test_nice_to_weight_table():
    assert nice_to_weight(0) == NICE_0_WEIGHT == 1024
    assert nice_to_weight(-20) == 88761
    assert nice_to_weight(19) == 15
    with pytest.raises(ValueError):
        nice_to_weight(-21)
    with pytest.raises(ValueError):
        nice_to_weight(20)


def test_single_process_takes_exact_cpu_time(engine):
    sched = make_sched(engine)
    done = []
    proc = sched.spawn(hog(100.0, engine=engine, done_log=done, tag="p"), "p")
    proc.start()
    run_until_done(engine, [proc])
    assert done == [("p", 100.0)]
    assert proc.cpu_us == pytest.approx(100.0)


def test_two_equal_processes_share_one_core(engine):
    sched = make_sched(engine, cores=1, quantum=100.0)
    done = []
    procs = [
        sched.spawn(hog(1000.0, engine=engine, done_log=done, tag=i), f"p{i}").start()
        for i in range(2)
    ]
    run_until_done(engine, procs)
    # Serialized on one core: total elapsed equals total work.
    assert engine.now == pytest.approx(2000.0)
    # Fair sharing: both finish within one quantum of each other.
    times = dict(done)
    assert abs(times[0] - times[1]) <= 100.0 + 1e-6


def test_four_processes_on_four_cores_run_in_parallel(engine):
    sched = make_sched(engine, cores=4)
    procs = [sched.spawn(hog(500.0), f"p{i}").start() for i in range(4)]
    run_until_done(engine, procs)
    assert engine.now == pytest.approx(500.0)


def test_more_processes_than_cores_serializes(engine):
    sched = make_sched(engine, cores=2, quantum=50.0)
    procs = [sched.spawn(hog(300.0), f"p{i}").start() for i in range(4)]
    run_until_done(engine, procs)
    assert engine.now == pytest.approx(600.0)


def test_heavier_weight_gets_proportional_share(engine):
    # nice -5 (weight 3121) vs nice 0 (1024) on one core: the heavier
    # process should finish much earlier than a fair 50/50 split.
    sched = make_sched(engine, cores=1, quantum=100.0)
    done = []
    heavy = sched.spawn(hog(1000.0, engine=engine, done_log=done, tag="heavy"),
                        "heavy", nice=-5)
    light = sched.spawn(hog(1000.0, engine=engine, done_log=done, tag="light"),
                        "light", nice=0)
    heavy.start()
    light.start()
    run_until_done(engine, [heavy, light])
    times = dict(done)
    assert times["heavy"] < times["light"]
    # With ~3:1 weights, heavy needs ~1000/(3121/(3121+1024)) = ~1330us.
    assert times["heavy"] < 1600.0


def test_nice_minus20_process_preempts_on_wake(engine):
    sched = make_sched(engine, cores=1, quantum=5000.0)
    event = Event(engine, "go")
    wake_latency = []

    def supervisor():
        yield Wait(event)
        woke = engine.now
        yield Compute(10.0, "supervisor_work")
        wake_latency.append(engine.now - woke)

    def worker():
        yield Compute(50_000.0, "worker_work")

    sup = sched.spawn(supervisor(), "sup", nice=-20).start()
    wrk = sched.spawn(worker(), "wrk", nice=0).start()
    engine.schedule(1000.0, event.fire, None)
    run_until_done(engine, [sup, wrk])
    # The -20 supervisor should run essentially immediately on wake.
    assert wake_latency[0] == pytest.approx(10.0, abs=1.0)


def test_nice0_wakeup_waits_for_slice_end(engine):
    sched = make_sched(engine, cores=1, quantum=2000.0)
    event = Event(engine, "go")
    start_delay = []

    def latecomer():
        yield Wait(event)
        woke = engine.now
        yield Compute(10.0, "late_work")
        start_delay.append(engine.now - woke - 10.0)

    def worker():
        yield Compute(50_000.0, "worker_work")

    late = sched.spawn(latecomer(), "late", nice=0).start()
    sched.spawn(worker(), "wrk", nice=0).start()
    engine.schedule(100.0, event.fire, None)
    run_until_done(engine, [late])
    # Equal priority: must wait for the hog's current slice to expire.
    assert start_delay[0] > 500.0


def test_sched_yield_goes_behind_ready_peers(engine):
    sched = make_sched(engine, cores=1, quantum=10_000.0)
    order = []

    def yielder():
        yield Compute(10.0, "a")
        order.append("yielder-before")
        yield YieldCPU()
        order.append("yielder-after")
        yield Compute(10.0, "a2")

    def other():
        yield Compute(10.0, "b")
        order.append("other")

    y = sched.spawn(yielder(), "y").start()
    o = sched.spawn(other(), "o").start()
    run_until_done(engine, [y, o])
    assert order.index("other") < order.index("yielder-after")


def test_blocking_releases_core_to_peer(engine):
    sched = make_sched(engine, cores=1, quantum=10_000.0)
    done = []

    def blocker():
        yield Compute(10.0, "pre")
        yield Sleep(1000.0)
        yield Compute(10.0, "post")
        done.append(("blocker", engine.now))

    def peer():
        yield Compute(100.0, "peer")
        done.append(("peer", engine.now))

    b = sched.spawn(blocker(), "b").start()
    p = sched.spawn(peer(), "p").start()
    run_until_done(engine, [b, p])
    times = dict(done)
    # Peer runs during the blocker's sleep.
    assert times["peer"] == pytest.approx(110.0)
    assert times["blocker"] == pytest.approx(1020.0)


def test_busy_time_accounting(engine):
    sched = make_sched(engine, cores=2)
    procs = [sched.spawn(hog(500.0), f"p{i}").start() for i in range(2)]
    run_until_done(engine, procs)
    assert sched.total_busy_us() == pytest.approx(1000.0)


def test_context_switch_cost_is_charged(engine):
    sched = make_sched(engine, cores=1, ctx=2.0)
    proc = sched.spawn(hog(100.0), "p").start()
    run_until_done(engine, [proc])
    assert engine.now == pytest.approx(102.0)
    assert sched.total_busy_us() == pytest.approx(102.0)


def test_profiler_receives_labels(engine):
    records = []

    class RecordingProbe(Probe):
        """Every sink off (each hook a no-op) but a recording ``charge``."""

        def __init__(self):
            super().__init__(engine, False, False, False)
            self.charge = lambda *burst: records.append(burst)

    sched = Scheduler(engine, n_cores=1, quantum_us=2000.0,
                      ctx_switch_us=0.0, probe=RecordingProbe())
    proc = sched.spawn(hog(42.0, label="my_function"), "p").start()
    run_until_done(engine, [proc])
    labels = {label for label, __, __ in records}
    assert "my_function" in labels
    total = sum(us for label, us, __ in records if label == "my_function")
    assert total == pytest.approx(42.0)


def test_many_small_bursts_accumulate_exactly(engine):
    sched = make_sched(engine, cores=1)

    def body():
        for __ in range(100):
            yield Compute(1.0, "burst")

    proc = sched.spawn(body(), "p").start()
    run_until_done(engine, [proc])
    assert engine.now == pytest.approx(100.0)
    assert proc.cpu_us == pytest.approx(100.0)


def test_runnable_count(engine):
    sched = make_sched(engine, cores=1)
    procs = [sched.spawn(hog(1000.0), f"p{i}").start() for i in range(3)]
    engine.run(until=500.0)
    assert sched.runnable() == 3
    run_until_done(engine, procs)
    assert sched.runnable() == 0


# ---------------------------------------------------------------------------
# the burst path (DESIGN.md §3d)
# ---------------------------------------------------------------------------
def _profiled_calls(n_procs, bursts):
    """(Python calls, events fired) running ``n_procs`` processes of
    ``bursts`` x Compute(10) on a default 4-core scheduler."""
    engine = Engine()
    sched = Scheduler(engine, n_cores=4)

    def body():
        for __ in range(bursts):
            yield Compute(10.0, "burst")

    procs = [sched.spawn(body(), f"p{i}").start() for i in range(n_procs)]
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        engine.run()
    finally:
        sys.setprofile(None)
    assert not any(proc.alive for proc in procs)
    return calls, engine.events_fired


@pytest.mark.parametrize("n_procs, budget", [(4, 6), (8, 8)],
                         ids=["uncontended", "contended"])
def test_frame_budget_per_burst(n_procs, budget):
    """A completed burst costs one engine event and at most ``budget``
    Python calls (generator resume and the Compute included); start-up
    and exit are fixed costs, so the budget is taken at the margin."""
    calls, events = _profiled_calls(n_procs, 2000)
    fewer_calls, __ = _profiled_calls(n_procs, 1000)
    per_burst = (calls - fewer_calls) / (n_procs * 1000)
    assert per_burst <= budget
    assert events / (n_procs * 2000) == 1.0005  # one per burst + starts


#: ``_timeline_digest()`` on the scheduler before the burst path resumed
#: on-core processes inline; the event stream must not move
TIMELINE_DIGEST = "7ff174e140438220"


def _timeline_digest():
    """Hash of every CPU charge — (now, process, cpu_us, vruntime,
    epochs parked) — in a two-core scenario that takes each corner of the
    burst path, plus the number of engine events fired."""
    engine = Engine()
    charges = []

    class ChargeProbe(Probe):
        """Every sink off, but ``charge`` logs the charged process."""

        def __init__(self):
            super().__init__(engine, False, False, False)
            self.charge = self._log

        def _log(self, label, us, name):
            proc = next(p for p in sched.processes if p.name == name)
            charges.append((engine.now, name, proc.cpu_us, proc.vruntime,
                            proc.epochs_parked))

    sched = Scheduler(engine, n_cores=2, quantum_us=200.0, ctx_switch_us=1.5,
                      granularity_us=50.0, o1_timeslice_us=400.0,
                      o1_park_us=300.0, probe=ChargeProbe())

    def sup_body():  # suspended mid-burst at 130 us, resumed by ``light``
        for __ in range(3):
            yield Compute(60.0, "sup")
            yield Sleep(40.0)

    def light_body():
        # Between bursts, on-core: wake the suspended nice -20 process,
        # which preempts this (the lightest) one during its own resume.
        for __ in range(30):
            yield Compute(23.0, "light")
            if sup.suspended and engine.now >= 400.0:
                sched.resume(sup)

    def parker_body():  # never sleeps: parked at a burst boundary
        for __ in range(40):
            yield Compute(17.0, "stream")

    def kid_body():
        for __ in range(3):
            yield Compute(13.0, "kid")
        yield Exit(7)

    def yielder_body():
        for i in range(6):
            yield Compute(11.0, "yield")
            if i == 2:
                kids.append((yield Fork(kid_body(), "kid")))
            yield YieldCPU()
        yield Sleep(1500.0)
        yield Compute(5.0, "yield")
        yield YieldCPU()  # alone now: the yield keeps the core
        yield Compute(5.0, "yield")
        yield Exit("bye")

    def doomed_body():
        for __ in range(4):
            yield Compute(500.0, "doomed")

    def kill_queued():
        assert doomed.in_runqueue
        doomed.kill()

    kids = []
    sup = sched.spawn(sup_body(), "sup", nice=-20).start()
    light = sched.spawn(light_body(), "light", nice=5).start()
    parker = sched.spawn(parker_body(), "parker").start()
    yielder = sched.spawn(yielder_body(), "yielder").start()
    doomed = sched.spawn(doomed_body(), "doomed").start()
    engine.schedule(130.0, sched.suspend, sup)
    engine.schedule(280.0, kill_queued)
    run_until_done(engine, [sup, light, parker, yielder, doomed])
    assert sup.state is ProcessState.DONE
    assert parker.epochs_parked >= 1
    assert yielder.result == "bye" and kids[0].result == 7
    assert doomed.state is ProcessState.KILLED
    blob = repr((charges, engine.events_fired)).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def test_burst_path_timeline_is_unchanged():
    assert _timeline_digest() == TIMELINE_DIGEST
