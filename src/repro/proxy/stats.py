"""Proxy-side accounting.

The paper reports *client-measured* throughput (the manager aggregates
phone reports); these counters are the server-side view used for
cross-checking, profiles, and the §4.3 diagnostics (idle cores, EMFILE,
port exhaustion).
"""

from typing import Dict


class ProxyStats:
    """Counters for one proxy instance."""

    def __init__(self) -> None:
        # message flow
        self.messages_received = 0
        self.messages_sent = 0
        self.parse_errors = 0
        self.routing_failures = 0
        # transactions (server view)
        self.transactions_created = 0
        self.transactions_completed = 0
        self.invite_completed = 0
        self.bye_completed = 0
        self.retransmissions_sent = 0
        self.retransmissions_absorbed = 0
        self.transactions_timed_out = 0
        # overload control
        self.invites_rejected = 0
        # registration
        self.registrations = 0
        # TCP architecture specifics
        self.accepts = 0
        self.accept_failures = 0
        self.outbound_connects = 0
        self.fd_requests = 0
        self.fd_cache_hits = 0
        self.fd_cache_misses = 0
        self.conns_created = 0
        self.conns_closed_idle = 0
        self.conns_released_by_worker = 0
        self.idle_scan_entries_examined = 0
        self.idle_scans = 0
        self.pq_operations = 0
        self.send_failures = 0
        # fault recovery (watchdog restarts)
        self.workers_restarted = 0
        self.conns_redispatched = 0
        self.conns_shed_on_restart = 0

    def snapshot(self) -> Dict[str, float]:
        """A copy of all numeric counters (for windowed measurements).

        Every int *and* float field is captured; bools are excluded (a
        plain ``isinstance(value, int)`` filter would count them and
        silently drop float-valued counters).
        """
        return {name: value for name, value in vars(self).items()
                if isinstance(value, (int, float))
                and not isinstance(value, bool)}

    def delta(self, earlier: Dict[str, float]) -> Dict[str, float]:
        """Counter increases since an earlier :meth:`snapshot`."""
        current = self.snapshot()
        return {name: current[name] - earlier.get(name, 0)
                for name in current}
