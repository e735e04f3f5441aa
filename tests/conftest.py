"""Shared fixtures and helpers for the test suite."""

import multiprocessing
import os

import pytest

from repro.kernel.machine import Machine
from repro.net.fabric import Fabric
from repro.sim.engine import Engine


def drive(engine, gen, limit_us=10_000_000.0):
    """Run a cost-charging generator to completion on the bare engine and
    return its value (used to unit-test proxy generator methods)."""
    from repro.sim.process import SimProcess

    box = {}

    def body():
        box["value"] = yield from gen

    proc = SimProcess(engine, body(), "driver").start()
    run_until_done(engine, [proc], limit_us=limit_us)
    if proc.error is not None:
        raise proc.error
    return box.get("value")


def make_lan(engine, names, latency_us=50.0, **machine_kwargs):
    """A switched LAN with one machine per name; returns (fabric, machines)."""
    fabric = Fabric(engine, latency_us=latency_us)
    machines = {}
    for name in names:
        machine = Machine(engine, name, **machine_kwargs)
        fabric.attach(machine)
        machines[name] = machine
    return fabric, machines


def map_in_workers(fn, args):
    """``[fn(arg) for arg in args]``, with the calls spread over forked
    workers (at most one per CPU) so a test's independent multi-second
    cells run side by side.  ``fn`` must be module-level and return
    something picklable; cells are seeded, so the results are the same
    as a serial run's."""
    args = list(args)
    jobs = min(len(args), os.cpu_count() or 1)
    if jobs <= 1:
        return [fn(arg) for arg in args]
    with multiprocessing.get_context("fork").Pool(processes=jobs) as pool:
        return pool.map(fn, args, chunksize=1)


@pytest.fixture
def engine():
    return Engine()


def run_until_done(engine, procs, limit_us=10_000_000.0):
    """Run the engine until every process in ``procs`` finished."""
    deadline = engine.now + limit_us
    while any(p.alive for p in procs):
        if not engine.step():
            break
        if engine.now > deadline:
            raise AssertionError(
                f"processes did not finish within {limit_us}us: "
                f"{[p for p in procs if p.alive]}")
    engine.run(until=engine.now)  # drain same-instant follow-up events
    return engine.now
