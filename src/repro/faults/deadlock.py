"""Wait-for-graph deadlock detection over the IPC endpoints.

The §6 deadlock is a two-node cycle: the supervisor blocks sending a new
connection to a worker whose assign buffer is full, while that worker
blocks awaiting an fd response only the supervisor can send.  Every
:class:`~repro.kernel.ipc.IpcEndpoint` already timestamps its blocking
states (``blocked_sending_since`` / ``blocked_receiving_since``, kept
accurate by the non-blocking paths too); the detector turns those into a
directed *wait-for graph* — an edge ``owner -> peer`` means "owner is
blocked on an endpoint only peer can unblock" — and scans it on a
periodic timer (plain engine callbacks: zero simulated cost, so a
detected run is bit-identical to an undetected one).

A strongly connected component of two or more owners is a deadlock: no
member can run until another member does.  Transient backpressure never
forms one — a worker merely slow to drain its assign buffer has the
supervisor edge ``supervisor -> worker-i`` but no edge back, because the
worker is runnable (its blocking recv on the fd channel, if any, has a
live supervisor behind it only when the supervisor itself is blocked).

Detection is deterministic: scans run at fixed simulated instants, so
the same seed produces the same detection timestamp.  A cycle is
reported once when it forms; if it dissolves (e.g. the watchdog restarts
a member) and later re-forms, it is reported again.
"""

from typing import Dict, List, Set, Tuple

from repro.kernel.timerwheel import PeriodicTimer

#: scan period (µs of simulated time)
PERIOD_US = 25_000.0


def _sccs(edges: Dict[str, Set[str]]) -> List[frozenset]:
    """Tarjan's strongly-connected components, iteratively.

    Returns only *deadlocked* components: more than one node, or a node
    with a self-edge (an owner blocked on something only it can clear).
    """
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    counter = [0]
    out: List[frozenset] = []

    for root in edges:
        if root in index:
            continue
        # Each frame: (node, iterator over successors)
        work = [(root, iter(sorted(edges.get(root, ()))))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(edges.get(succ, ())))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                if len(component) > 1 or \
                        node in edges.get(node, ()):
                    out.append(frozenset(component))
    return out


class DeadlockDetector:
    """Periodic wait-for-graph scans over registered IPC endpoints."""

    def __init__(self, engine) -> None:
        self.engine = engine
        #: the watched proxy's probe (set by :meth:`watch_proxy`)
        self.probe = None
        #: (endpoint, owner, peer): ``owner`` blocks on ``endpoint``;
        #: only ``peer`` can unblock it
        self._watched: List[Tuple[object, str, str]] = []
        #: JSON-ready detection records, in detection order
        self.detections: List[Dict] = []
        #: cycles present as of the last scan
        self.active: Set[frozenset] = set()
        self.scans = 0
        self._timer = PeriodicTimer(engine, PERIOD_US, self.scan)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def watch(self, endpoint, owner: str, peer: str) -> None:
        """Track one endpoint: ``owner`` blocked there waits on ``peer``."""
        self._watched.append((endpoint, owner, peer))

    def watch_proxy(self, proxy) -> "DeadlockDetector":
        """Register every endpoint the proxy declares via
        ``ipc_topology()`` (a no-op for supervisor-less architectures)."""
        for endpoint, owner, peer in proxy.ipc_topology():
            self.watch(endpoint, owner, peer)
        self.probe = proxy.probe
        return self

    # ------------------------------------------------------------------
    # scanning
    # ------------------------------------------------------------------
    def start(self) -> "DeadlockDetector":
        self._timer.start()
        return self

    def stop(self) -> None:
        self._timer.stop()

    def scan(self) -> List[Dict]:
        """One wait-for-graph walk; returns the *newly formed* cycles."""
        self.scans += 1
        now = self.engine.now
        edges: Dict[str, Set[str]] = {}
        #: most recent block timestamp per owner (the cycle formed no
        #: earlier than its youngest edge)
        since: Dict[str, float] = {}
        # Any blocked endpoint counts, however briefly: the cycle
        # requirement already filters transient backpressure.
        for endpoint, owner, peer in self._watched:
            for stamp in (endpoint.blocked_sending_since,
                          endpoint.blocked_receiving_since):
                if stamp is None:
                    continue
                edges.setdefault(owner, set()).add(peer)
                since[owner] = max(since.get(owner, stamp), stamp)
        current = set(_sccs(edges))
        new = []
        for members in sorted(current - self.active,
                              key=lambda m: sorted(m)):
            formed = max(since[m] for m in members)
            record = {"t_us": now, "members": sorted(members),
                      "blocked_us": now - formed}
            self.detections.append(record)
            new.append(record)
            if self.probe is not None:
                self.probe.instant("deadlock_detected", cat="faults",
                                   who="deadlock-detector",
                                   members=",".join(record["members"]))
        # Dissolved cycles leave the active set, so a re-formed cycle
        # (post-restart relapse) is reported as a fresh detection.
        self.active = current
        return new

    # ------------------------------------------------------------------
    def gauge_probes(self) -> Dict[str, object]:
        """Sampler probes (see :mod:`repro.obs.metrics`)."""
        return {
            "deadlock_cycles": lambda: float(len(self.active)),
            "deadlocks_detected": lambda: float(len(self.detections)),
        }
