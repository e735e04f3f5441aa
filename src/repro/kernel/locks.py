"""Locks: OpenSER-style userspace spinlocks.

OpenSER guards its shared-memory structures (transaction table, TCP
connection hash table) with userspace spinlocks that call ``sched_yield``
after failing to promptly acquire the lock (§5.2).  Under contention this
burns CPU in spin iterations and floods the scheduler with yields — the
paper observes "the top ten kernel functions are all in the Linux
scheduler" during the 50 ops/conn workload.  :class:`SpinLock` models
exactly that behaviour; the spin and yield costs are charged to the
profiler so the effect is visible in regenerated profiles.

The lock is used from process generators via ``yield from``::

    yield from table_lock.acquire()
    try:
        ...critical section...
    finally:
        table_lock.release()
"""

from typing import Optional

from repro.sim.primitives import Compute, YieldCPU


class SpinLock:
    """Userspace test-and-set spinlock with ``sched_yield`` backoff.

    Because the simulator advances one process at a time, the
    check-then-set inside :meth:`acquire` is atomic; the *cost* of the
    spinning (and of the yield syscalls) is what we model.
    """

    def __init__(
        self,
        name: str = "lock",
        spin_us: float = 1.0,
        spins_before_yield: int = 4,
    ) -> None:
        # spin_us models a *batch* of test-and-test-and-set iterations; the
        # burn rate is what matters, and coarser batches keep the event
        # count (and therefore wall-clock simulation time) manageable.
        self.name = name
        self.spins_before_yield = spins_before_yield
        # Effects are never mutated, so every acquire yields the same ones.
        self._try = Compute(0.05, f"lock.{name}.acquire")
        self._spin = Compute(spin_us, f"lock.{name}.spin")
        self._yield_syscall = Compute(0.7, "kernel.sched_yield")
        self._yield = YieldCPU()
        self.held = False
        self.owner: Optional[str] = None
        #: optional probe (spans only on the contended path, so the
        #: uncontended fast path stays emission-free)
        self.probe = None
        #: statistics
        self.acquisitions = 0
        self.contentions = 0
        self.yields = 0

    def acquire(self, who: str = "?"):
        """Generator: spin (burning CPU) until the lock is ours."""
        yield self._try
        contended = False
        span = None
        while self.held:
            if not contended:
                contended = True
                if self.probe is not None:
                    span = self.probe.begin("lock_spin", cat="kernel",
                                            who=who, lock=self.name,
                                            holder=self.owner)
            spun = 0
            while self.held and spun < self.spins_before_yield:
                yield self._spin
                spun += 1
            if self.held:
                self.yields += 1
                yield self._yield_syscall
                yield self._yield
        if contended:
            self.contentions += 1
            if span is not None:
                self.probe.end(span)
        self.held = True
        self.owner = who
        self.acquisitions += 1

    def release(self) -> None:
        if not self.held:
            raise RuntimeError(f"lock {self.name!r} released while not held")
        self.held = False
        self.owner = None
