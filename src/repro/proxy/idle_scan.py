"""Baseline idle-connection management: scan everything (§5.2).

OpenSER's supervisor "examined every TCP connection object in the shared
hash table while holding a lock" on each sweep, and "even the worker
processes examined every connection they owned".  Under the 50 ops/conn
churn workload, the population of lingering connections makes this sweep
— and the lock hold time — blow up, which the paper's profile shows as a
~3× increase in the idle-close function plus a storm of ``sched_yield``
in the kernel profile.
"""

from typing import List, Mapping

from repro.proxy.conn_table import ConnRecord, ConnTable
from repro.sim.primitives import Compute


class ScanIdleStrategy:
    """Examine every connection object on every pass."""

    name = "scan"

    def __init__(self, costs, timeout_us: float) -> None:
        self.costs = costs
        self.timeout_us = timeout_us
        #: optional probe (set by the owning server)
        self.probe = None

    # -- activity hooks (free for the scan strategy) -----------------------
    def on_activity(self, record: ConnRecord, now: float):
        record.last_activity = now
        return
        yield  # pragma: no cover - generator form kept for API symmetry

    def on_insert(self, record: ConnRecord, now: float):
        record.last_activity = now
        return
        yield  # pragma: no cover

    def on_release(self, record: ConnRecord, now: float):
        record.released = True
        record.released_at = now
        return
        yield  # pragma: no cover

    # -- sweeps -----------------------------------------------------------
    def supervisor_pass(self, table: ConnTable, now: float, who: str,
                        stats=None, single_phase: bool = False):
        """Generator: sweep the whole shared table under its lock; returns
        records whose *supervisor* grace period expired (destroy these) —
        i.e. released by the worker and idle for another timeout.

        ``single_phase=True`` (the threaded architecture) expires directly
        on inactivity: with shared descriptors there is no worker-return
        step to wait for.
        """
        span = (self.probe.begin("idle_sweep", cat="proxy", who=who,
                                 strategy=self.name)
                if self.probe is not None else None)
        yield from table.lock.acquire(who)
        try:
            population = len(table)
            if population:
                yield Compute(self.costs.idle_scan_entry_us * population,
                              "tcpconn_timeout")
            if stats is not None:
                stats.idle_scan_entries_examined += population
                stats.idle_scans += 1
            expired: List[ConnRecord] = []
            # Iterating the live dict is safe: the sweep holds the table
            # lock and the simulator interleaves only at yields.
            for record in table._by_id.values():
                if record.closed:
                    continue
                if single_phase:
                    if now - record.last_activity >= self.timeout_us:
                        expired.append(record)
                elif record.released and \
                        now - record.released_at >= self.timeout_us:
                    expired.append(record)
            if span is not None:
                self.probe.end(span.set(examined=population,
                                        expired=len(expired)))
            return expired
        finally:
            table.lock.release()

    def worker_pass(self, owned: Mapping, now: float, who: str,
                    stats=None, worker_index: int = 0):
        """Generator: a worker sweeps the connections it owns; returns the
        idle ones it should close and return to the supervisor.

        ``owned`` is the worker's own map of connection to ``WorkerConn``;
        only the worker changes it, so it holds still across the charge.
        """
        examined = len(owned)
        span = (self.probe.begin("idle_sweep", cat="proxy", who=who,
                                 strategy=self.name)
                if self.probe is not None and examined else None)
        if examined:
            yield Compute(self.costs.idle_scan_entry_us * examined,
                          "tcp_receive_timeout")
        if stats is not None:
            stats.idle_scan_entries_examined += examined
        expired = []
        for wc in owned.values():
            record = wc.record
            if not record.closed and not record.released \
                    and now - record.last_activity >= self.timeout_us:
                expired.append(record)
        if span is not None:
            self.probe.end(span.set(examined=examined,
                                    expired=len(expired)))
        return expired
