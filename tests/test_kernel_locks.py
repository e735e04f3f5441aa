"""Unit tests for spinlocks."""

import pytest

from repro.sim.engine import Engine
from repro.sim.primitives import Compute
from repro.sim.process import SimProcess
from repro.kernel.locks import SpinLock
from repro.kernel.scheduler import Scheduler

from conftest import run_until_done


def test_spinlock_uncontended_acquire_release(engine):
    lock = SpinLock("t")

    def body():
        yield from lock.acquire("p")
        assert lock.held
        lock.release()

    proc = SimProcess(engine, body(), "p").start()
    run_until_done(engine, [proc])
    assert not lock.held
    assert lock.acquisitions == 1
    assert lock.contentions == 0


def test_spinlock_mutual_exclusion(engine):
    lock = SpinLock("t")
    in_section = []
    overlaps = []

    def body(tag):
        yield from lock.acquire(tag)
        if in_section:
            overlaps.append((tag, list(in_section)))
        in_section.append(tag)
        yield Compute(50.0, "critical")
        in_section.remove(tag)
        lock.release()

    procs = [SimProcess(engine, body(i), f"p{i}").start() for i in range(4)]
    run_until_done(engine, procs)
    assert overlaps == []
    assert lock.acquisitions == 4


def test_spinlock_contention_burns_cpu_on_scheduler(engine):
    """Contended spinlocks spin and sched_yield — with two cores, the
    waiters burn real CPU while the holder works."""
    sched = Scheduler(engine, n_cores=2, quantum_us=1000.0, ctx_switch_us=0.0)
    lock = SpinLock("t", spin_us=0.5, spins_before_yield=8)

    def body(tag):
        yield from lock.acquire(tag)
        yield Compute(200.0, "critical")
        lock.release()

    procs = [sched.spawn(body(i), f"p{i}").start() for i in range(3)]
    run_until_done(engine, procs)
    # Critical sections serialize: at least 600us of lock-held time.
    assert engine.now > 600.0
    assert lock.contentions >= 1
    # The waiters' spinning consumed CPU beyond the critical sections.
    assert sched.total_busy_us() > 600.0 + 1.0


def test_spinlock_release_unheld_raises():
    lock = SpinLock("t")
    with pytest.raises(RuntimeError):
        lock.release()
