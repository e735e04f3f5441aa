"""Unit tests for generator-driven simulated processes."""

import pytest

from repro.sim.engine import Engine
from repro.sim.events import Event, Signal
from repro.sim.primitives import Compute, Exit, Fork, Sleep, Wait, YieldCPU
from repro.sim.process import ProcessState, SimProcess

from conftest import run_until_done


def test_compute_advances_clock(engine):
    def body():
        yield Compute(25.0, "work")

    proc = SimProcess(engine, body(), "p").start()
    run_until_done(engine, [proc])
    assert engine.now == 25.0
    assert proc.state is ProcessState.DONE


def test_sleep_advances_clock(engine):
    def body():
        yield Sleep(100.0)
        yield Compute(1.0)

    proc = SimProcess(engine, body(), "p").start()
    run_until_done(engine, [proc])
    assert engine.now == 101.0


def test_wait_receives_fired_value(engine):
    event = Event(engine, "go")
    seen = []

    def body():
        value = yield Wait(event)
        seen.append(value)

    proc = SimProcess(engine, body(), "p").start()
    engine.schedule(40.0, event.fire, "payload")
    run_until_done(engine, [proc])
    assert seen == ["payload"]
    assert engine.now == 40.0


def test_wait_on_already_fired_event_is_immediate(engine):
    event = Event(engine, "go")
    event.fire(7)

    def body():
        value = yield Wait(event)
        return value

    proc = SimProcess(engine, body(), "p").start()
    run_until_done(engine, [proc])
    assert proc.result == 7


def test_return_value_becomes_result(engine):
    def body():
        yield Compute(1.0)
        return 42

    proc = SimProcess(engine, body(), "p").start()
    run_until_done(engine, [proc])
    assert proc.result == 42


def test_exit_effect_terminates_with_value(engine):
    def body():
        yield Exit("bye")
        yield Compute(100.0)  # unreachable

    proc = SimProcess(engine, body(), "p").start()
    run_until_done(engine, [proc])
    assert proc.result == "bye"
    assert engine.now == 0.0


@pytest.mark.parametrize("end", [Compute(1.0), Exit("bye")])
def test_finished_process_drops_its_generator(engine, end):
    """A finished body has nothing left to run, so the process lets the
    generator go; killing it afterwards still changes nothing."""
    def body():
        yield end
        return "bye"

    proc = SimProcess(engine, body(), "p").start()
    run_until_done(engine, [proc])
    assert proc.gen is None
    proc.kill()
    assert proc.state is ProcessState.DONE and proc.result == "bye"
    assert proc.done.value == "bye"


def test_fork_spawns_running_child(engine):
    log = []

    def child_body():
        yield Compute(5.0)
        log.append(("child", engine.now))

    def parent_body():
        child = yield Fork(child_body(), "kid")
        yield Wait(child.done)
        log.append(("parent", engine.now))

    proc = SimProcess(engine, parent_body(), "p").start()
    run_until_done(engine, [proc])
    assert log == [("child", 5.0), ("parent", 5.0)]


def test_kill_discards_pending_wakeups(engine):
    progressed = []

    def body():
        yield Sleep(100.0)
        progressed.append(True)

    proc = SimProcess(engine, body(), "p").start()
    engine.schedule(50.0, proc.kill)
    engine.run()
    assert progressed == []
    assert proc.state is ProcessState.KILLED


def test_done_event_fires_on_completion(engine):
    results = []

    def body():
        yield Compute(3.0)
        return "ok"

    proc = SimProcess(engine, body(), "p").start()
    proc.done.subscribe(results.append)
    run_until_done(engine, [proc])
    assert results == ["ok"]


@pytest.mark.parametrize("end", ["return", "kill", "fail"])
def test_done_looked_at_after_the_end_is_already_fired(engine, end):
    """``done`` is built on first access; built after the process ended,
    it is fired with what the process ended with, and late subscribers
    are woken as for an event fired on time."""
    def body():
        yield Compute(1.0)
        if end == "fail":
            raise ValueError("boom")
        return "ok"

    proc = SimProcess(engine, body(), "p").start()
    if end == "kill":
        engine.run(until=0.5)
        proc.kill()
    elif end == "fail":
        with pytest.raises(ValueError):
            engine.run()
    else:
        run_until_done(engine, [proc])
    expected = "ok" if end == "return" else None
    assert proc.done.fired is True
    assert proc.done.value == expected
    assert proc.done.name == "p.done"
    woken = []
    proc.done.subscribe(woken.append)
    engine.run()
    assert woken == [expected]


def test_wakeup_after_kill_is_dropped(engine):
    signal = Signal(engine, "s")
    progressed = []

    def body():
        yield Wait(signal)
        progressed.append(engine.now)

    proc = SimProcess(engine, body(), "p").start()
    engine.run()
    proc.kill()
    signal.fire()
    engine.run()
    assert progressed == []
    assert proc.state is ProcessState.KILLED


def test_exception_propagates_and_marks_failed(engine):
    def body():
        yield Compute(1.0)
        raise ValueError("boom")

    proc = SimProcess(engine, body(), "p").start()
    with pytest.raises(ValueError):
        engine.run()
    assert proc.state is ProcessState.FAILED
    assert isinstance(proc.error, ValueError)


def test_yield_cpu_is_free_for_light_processes(engine):
    def body():
        yield YieldCPU()
        yield Compute(1.0)

    proc = SimProcess(engine, body(), "p").start()
    run_until_done(engine, [proc])
    assert engine.now == 1.0


def test_signal_wakes_current_waiters_only(engine):
    signal = Signal(engine, "s")
    seen = []

    def body(tag):
        value = yield Wait(signal)
        seen.append((tag, value))

    SimProcess(engine, body("a"), "a").start()
    SimProcess(engine, body("b"), "b").start()
    engine.schedule(10.0, signal.fire, 1)
    engine.run()
    assert sorted(seen) == [("a", 1), ("b", 1)]


def test_signal_fire_one_wakes_fifo(engine):
    signal = Signal(engine, "s")
    seen = []

    def body(tag):
        yield Wait(signal)
        seen.append(tag)

    SimProcess(engine, body("first"), "first").start()
    SimProcess(engine, body("second"), "second").start()
    engine.schedule(10.0, signal.fire_one)
    engine.run()
    assert seen == ["first"]


def test_start_twice_raises(engine):
    def body():
        yield Compute(1.0)

    proc = SimProcess(engine, body(), "p").start()
    with pytest.raises(Exception):
        proc.start()
