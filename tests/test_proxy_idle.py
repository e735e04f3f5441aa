"""Unit tests for the idle-connection strategies (§5.2 scan vs §5.3 PQ)."""

import pytest

from repro.sim.engine import Engine
from repro.kernel.fdtable import FileDescription
from repro.proxy.conn_table import ConnTable
from repro.proxy.connection import WorkerConn
from repro.proxy.costs import CostModel
from repro.proxy.idle_pq import PqIdleStrategy
from repro.proxy.idle_scan import ScanIdleStrategy

from conftest import drive

TIMEOUT = 1000.0


class FakeConn:
    def on_last_close(self):
        pass


def insert(engine, table, strategy, owner=0, now=0.0):
    record = drive(engine, table.insert(FakeConn(),
                                        FileDescription(FakeConn(), "t"),
                                        owner, now))
    drive(engine, strategy.on_insert(record, now))
    return record


def owned(*records):
    """A worker's map of the connections it owns, as the server keeps it."""
    return {record.conn: WorkerConn(record, fd=3 + i)
            for i, record in enumerate(records)}


@pytest.fixture
def table():
    return ConnTable(CostModel())


@pytest.fixture(params=["scan", "pq"])
def strategy(request):
    if request.param == "pq":
        return PqIdleStrategy(CostModel(), TIMEOUT, n_workers=2)
    return ScanIdleStrategy(CostModel(), TIMEOUT)


class TestBothStrategies:
    def test_fresh_connection_not_expired(self, engine, table, strategy):
        insert(engine, table, strategy, now=0.0)
        expired = drive(engine, strategy.supervisor_pass(table, 10.0, "sup"))
        assert expired == []

    def test_worker_pass_finds_idle_owned_conn(self, engine, table, strategy):
        record = insert(engine, table, strategy, now=0.0)
        expired = drive(engine, strategy.worker_pass(
            owned(record), TIMEOUT + 1.0, "w", worker_index=0))
        assert expired == [record]

    def test_worker_pass_skips_active_conn(self, engine, table, strategy):
        record = insert(engine, table, strategy, now=0.0)
        drive(engine, strategy.on_activity(record, TIMEOUT * 0.9))
        expired = drive(engine, strategy.worker_pass(
            owned(record), TIMEOUT + 1.0, "w", worker_index=0))
        assert expired == []

    def test_supervisor_waits_for_worker_release(self, engine, table,
                                                 strategy):
        """§3.1 two-step teardown: the supervisor cannot destroy a
        connection its worker has not returned."""
        record = insert(engine, table, strategy, now=0.0)
        expired = drive(engine, strategy.supervisor_pass(
            table, TIMEOUT * 3, "sup"))
        assert expired == []  # idle, but never released

    def test_supervisor_destroys_after_release_plus_timeout(self, engine,
                                                            table, strategy):
        record = insert(engine, table, strategy, now=0.0)
        drive(engine, strategy.on_release(record, 500.0))
        # Within the supervisor's additional grace period: not yet.
        expired = drive(engine, strategy.supervisor_pass(
            table, 500.0 + TIMEOUT * 0.5, "sup"))
        assert expired == []
        expired = drive(engine, strategy.supervisor_pass(
            table, 500.0 + TIMEOUT + 1.0, "sup"))
        assert expired == [record]

    def test_single_phase_expires_on_inactivity(self, engine, table,
                                                strategy):
        record = insert(engine, table, strategy, now=0.0)
        expired = drive(engine, strategy.supervisor_pass(
            table, TIMEOUT + 1.0, "sup", single_phase=True))
        assert expired == [record]

    def test_closed_records_ignored(self, engine, table, strategy):
        record = insert(engine, table, strategy, now=0.0)
        drive(engine, strategy.on_release(record, 0.0))
        record.closed = True
        expired = drive(engine, strategy.supervisor_pass(
            table, TIMEOUT * 5, "sup"))
        assert expired == []


class TestScanCostShape:
    def test_scan_cost_proportional_to_population(self, engine, table):
        """The §5.2 problem: every pass touches every connection."""
        strategy = ScanIdleStrategy(CostModel(), TIMEOUT)
        for __ in range(100):
            insert(engine, table, strategy, now=0.0)
        before = engine.now
        drive(engine, strategy.supervisor_pass(table, 1.0, "sup"))
        cost_100 = engine.now - before
        for __ in range(400):
            insert(engine, table, strategy, now=0.0)
        before = engine.now
        drive(engine, strategy.supervisor_pass(table, 2.0, "sup"))
        cost_500 = engine.now - before
        assert cost_500 > 4.0 * cost_100

    def test_scan_holds_table_lock(self, engine, table):
        strategy = ScanIdleStrategy(CostModel(), TIMEOUT)
        for __ in range(10):
            insert(engine, table, strategy, now=0.0)
        locked_during_pass = []

        def sweep():
            yield from strategy.supervisor_pass(table, 1.0, "sup")

        def observer():
            from repro.sim.primitives import Sleep
            yield Sleep(1.0)
            locked_during_pass.append(table.lock.held)

        from repro.sim.process import SimProcess
        from conftest import run_until_done
        p1 = SimProcess(engine, sweep(), "sweep").start()
        p2 = SimProcess(engine, observer(), "obs").start()
        run_until_done(engine, [p1, p2])
        assert locked_during_pass == [True]


class TestPqCostShape:
    def test_pq_pass_ignores_unexpired_population(self, engine, table):
        """The §5.3 win: sweep cost tracks expiries, not population."""
        strategy = PqIdleStrategy(CostModel(), TIMEOUT, n_workers=1)
        for __ in range(500):
            insert(engine, table, strategy, now=0.0)
        before = engine.now
        expired = drive(engine, strategy.supervisor_pass(table, 1.0, "sup"))
        cost = engine.now - before
        assert expired == []
        # Nothing expired: only the lock acquire, no per-entry work.
        assert cost < 5.0

    def test_pq_reinserts_unreleased_expired_conns(self, engine, table):
        strategy = PqIdleStrategy(CostModel(), TIMEOUT, n_workers=1)
        record = insert(engine, table, strategy, now=0.0)
        expired = drive(engine, strategy.supervisor_pass(
            table, TIMEOUT + 1.0, "sup"))
        assert expired == []
        # The record was re-queued for a later look, per §5.3.
        assert len(strategy.shared) == 1

    def test_pq_activity_updates_are_synchronized_work(self, engine, table):
        strategy = PqIdleStrategy(CostModel(), TIMEOUT, n_workers=1)
        record = insert(engine, table, strategy, now=0.0)
        before = engine.now
        drive(engine, strategy.on_activity(record, 10.0))
        assert engine.now > before  # charged CPU under the PQ lock

    def test_pq_worker_pass_uses_local_heap(self, engine, table):
        strategy = PqIdleStrategy(CostModel(), TIMEOUT, n_workers=2)
        r0 = insert(engine, table, strategy, owner=0, now=0.0)
        r1 = insert(engine, table, strategy, owner=1, now=0.0)
        expired = drive(engine, strategy.worker_pass(
            owned(r0), TIMEOUT + 1.0, "w0", worker_index=0))
        assert expired == [r0]
        expired = drive(engine, strategy.worker_pass(
            owned(r1), TIMEOUT + 1.0, "w1", worker_index=1))
        assert expired == [r1]

    def test_pq_worker_pass_skips_records_it_does_not_own(self, engine,
                                                          table):
        """An expired entry counts only if the worker still owns that very
        record: not when the connection is gone from its map, nor when the
        map holds another record for it."""
        strategy = PqIdleStrategy(CostModel(), TIMEOUT, n_workers=1)
        r0 = insert(engine, table, strategy, owner=0, now=0.0)
        r1 = insert(engine, table, strategy, owner=0, now=0.0)
        stranger = dict(owned(r1))
        stranger[r0.conn] = stranger.pop(r1.conn)  # r0's conn, r1's record
        expired = drive(engine, strategy.worker_pass(
            stranger, TIMEOUT + 1.0, "w0", worker_index=0))
        assert expired == []  # r1's conn is not in the map at all
