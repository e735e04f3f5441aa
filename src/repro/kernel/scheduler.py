"""Multi-core weighted-fair CPU scheduler.

The paper's §4.3 finding — the TCP supervisor starves among 32 runnable
workers unless elevated to nice −20, leaving cores idle and costing
40–100% of throughput — is a pure CPU-scheduling phenomenon.  This module
reproduces it with a CFS-style model:

- each process has a *weight* from the real Linux nice→weight table;
- ready processes are ordered by weighted virtual runtime;
- a waking process preempts a running one only when its weight is strictly
  higher (so nice −20 preempts nice 0 instantly, while equal-priority
  processes wait out the current slice, as a nice-0 supervisor must).

CPU time consumed by each :class:`~repro.sim.primitives.Compute` burst is
attributed to its label through the optional probe
(:mod:`repro.obs.probe`), which is how the OProfile tables in §5 are
regenerated.
"""

import heapq
from typing import Any, Iterator, List, Optional

from repro.sim.engine import Engine, Scheduled
from repro.sim.primitives import Compute, Wait, YieldCPU
from repro.sim.process import ALIVE_STATES, SimProcess

#: The Linux ``prio_to_weight`` table (kernel/sched.c), nice −20 … +19.
PRIO_TO_WEIGHT = [
    88761, 71755, 56483, 46273, 36291,
    29154, 23254, 18705, 14949, 11916,
    9548, 7620, 6100, 4904, 3906,
    3121, 2501, 1991, 1586, 1277,
    1024, 820, 655, 526, 423,
    335, 272, 215, 172, 137,
    110, 87, 70, 56, 45,
    36, 29, 23, 18, 15,
]

NICE_0_WEIGHT = 1024

#: label used for the yield marker burst
_YIELD_LABEL = "kernel.sched_yield"


def nice_to_weight(nice: int) -> int:
    """Map a nice level (−20 … 19) to its scheduler weight."""
    if not -20 <= nice <= 19:
        raise ValueError(f"nice level out of range: {nice}")
    return PRIO_TO_WEIGHT[nice + 20]


class _Core:
    """One CPU core: at most one running process and its slice timer."""

    __slots__ = ("index", "current", "last_proc", "slice_handle",
                 "slice_started", "slice_len", "ctx_pending", "busy_us")

    def __init__(self, index: int) -> None:
        self.index = index
        self.current: Optional["KernelProcess"] = None
        self.last_proc: Optional["KernelProcess"] = None
        self.slice_handle: Optional[Scheduled] = None
        self.slice_started: float = 0.0
        self.slice_len: float = 0.0
        self.ctx_pending: float = 0.0
        self.busy_us: float = 0.0


class Scheduler:
    """Weighted-fair scheduler over ``n_cores`` simulated cores."""

    def __init__(
        self,
        engine: Engine,
        n_cores: int = 4,
        quantum_us: float = 2000.0,
        ctx_switch_us: float = 1.5,
        granularity_us: float = 1000.0,
        o1_model: bool = True,
        o1_timeslice_us: float = 60_000.0,
        o1_park_us: float = 60_000.0,
        probe=None,
    ) -> None:
        if n_cores < 1:
            raise ValueError("need at least one core")
        self.engine = engine
        self.cores = [_Core(i) for i in range(n_cores)]
        self.quantum_us = quantum_us
        self.ctx_switch_us = ctx_switch_us
        #: CFS-style preemption granularity: a running process is only
        #: displaced at a burst boundary when it is this far (in weighted
        #: vruntime) ahead of the best waiter — otherwise short bursts
        #: would context-switch pathologically.
        self.granularity_us = granularity_us
        #: Linux 2.6.20 O(1)-scheduler behaviour (§4.3): a non-interactive
        #: task — one whose CPU use since its last reset exceeds its sleep
        #: time by more than a timeslice — lands in the *expired* array on
        #: wake and waits out an epoch even when cores are idle.  Elevated
        #: (negative-nice) tasks are exempt, which is exactly why raising
        #: the TCP supervisor to −20 fixes its starvation.
        self.o1_model = o1_model
        self.o1_timeslice_us = o1_timeslice_us
        self.o1_park_us = o1_park_us
        #: optional :class:`~repro.obs.probe.Probe`; every hook below
        #: guards on None so the unobserved hot path costs one attribute
        #: load and a branch
        self.probe = probe
        self._runqueue: List[tuple] = []  # (vruntime, seq, proc)
        self._seq = 0
        self._min_vruntime = 0.0
        self.processes: List["KernelProcess"] = []

    # ------------------------------------------------------------------
    # process management
    # ------------------------------------------------------------------
    def spawn(self, body: Iterator, name: str = "kproc",
              nice: int = 0) -> "KernelProcess":
        """Create (but do not start) a process scheduled on these cores."""
        proc = KernelProcess(self.engine, body, name=name, nice=nice,
                             scheduler=self)
        self.processes.append(proc)
        return proc

    # ------------------------------------------------------------------
    # run queue
    # ------------------------------------------------------------------
    def _should_park(self, proc: "KernelProcess") -> bool:
        """O(1)-model: has this task exhausted its interactivity credit?"""
        return (self.o1_model
                and proc.weight <= NICE_0_WEIGHT
                and proc.cpu_debt - proc.sleep_credit > self.o1_timeslice_us)

    def _park(self, proc: "KernelProcess") -> None:
        proc.parked = True
        proc.cpu_debt = 0.0
        proc.sleep_credit = 0.0
        proc.epochs_parked += 1
        probe = self.probe
        if probe is not None:
            # The §4.3 starvation ingredient, visible per-process.
            probe.instant("o1_park", cat="kernel", who=proc.name,
                          park_us=self.o1_park_us)
            # An epoch in the expired array is scheduler-induced wait:
            # attribute it as run-queue time (earliest stamp wins, so the
            # eventual _fill_core pop covers park + queueing in one go).
            probe.runq_push(proc.name)
        self.engine.schedule(self.o1_park_us, self._unpark, proc)

    def _push_ready(self, proc: "KernelProcess") -> None:
        if self._should_park(proc):
            # Expired array: the task waits out an epoch even if cores
            # sit idle (the §4.3 starvation).
            self._park(proc)
            return
        # Long sleepers get at most one quantum of credit (CFS's wakeup
        # placement); a CPU-hungry process that merely blips off the CPU
        # keeps its vruntime debt.
        floor = self._min_vruntime - self.quantum_us
        if proc.vruntime < floor:
            proc.vruntime = floor
        self._seq += 1
        proc.in_runqueue = True
        heapq.heappush(self._runqueue, (proc.vruntime, self._seq, proc))
        if self.probe is not None:
            self.probe.runq_push(proc.name)

    def _pop_ready(self) -> Optional["KernelProcess"]:
        while self._runqueue:
            __, __, proc = heapq.heappop(self._runqueue)
            if proc.in_runqueue and proc.alive:
                proc.in_runqueue = False
                return proc
        return None

    def _peek_key(self) -> Optional[float]:
        while self._runqueue:
            vruntime, __, proc = self._runqueue[0]
            # ``alive`` without the property call: once per contended burst
            if proc.in_runqueue and proc.state in ALIVE_STATES:
                return vruntime
            heapq.heappop(self._runqueue)
        return None

    def make_ready(self, proc: "KernelProcess") -> None:
        """A process woke up (or was forked) and wants the CPU."""
        if proc.in_runqueue or proc.core is not None or not proc.alive:
            return
        if proc.suspended:
            return  # suspended processes never get the CPU
        if proc.parked:
            return  # waiting out an expired-array epoch
        if proc.blocked_at is not None:
            slept = self.engine.now - proc.blocked_at
            if self.probe is not None:
                self.probe.block_end(proc.name, proc.blocked_at)
            proc.blocked_at = None
            proc.sleep_credit = min(proc.sleep_credit + slept,
                                    self.o1_park_us)
        if self._should_park(proc):
            self._park(proc)
            return
        idle = self._idle_core()
        if idle is not None:
            self._push_ready(proc)
            self._fill_core(idle)
            return
        victim = self._preemption_victim(proc)
        if victim is not None:
            core = victim.core
            self._preempt(core)
            self._push_ready(proc)
            self._fill_core(core)
        else:
            self._push_ready(proc)

    def _unpark(self, proc: "KernelProcess") -> None:
        proc.parked = False
        if proc.alive:
            self.make_ready(proc)

    def _idle_core(self) -> Optional[_Core]:
        for core in self.cores:
            if core.current is None:
                return core
        return None

    def _preemption_victim(self, waker: "KernelProcess") -> Optional["KernelProcess"]:
        """Wakeup preemption: a strictly heavier process evicts the lightest
        running one.  Equal weights never preempt mid-slice."""
        victim = None
        for core in self.cores:
            running = core.current
            if running is None or running.weight >= waker.weight:
                continue
            if victim is None or running.weight < victim.weight:
                victim = running
        return victim

    # ------------------------------------------------------------------
    # core/slice mechanics
    # ------------------------------------------------------------------
    def _fill_core(self, core: _Core) -> None:
        """Put the best ready process on an idle core."""
        if core.current is not None:
            return
        proc = self._pop_ready()
        if proc is None:
            return
        if self.probe is not None:
            self.probe.runq_pop(proc.name)
        core.current = proc
        proc.core = core
        # Switching back to the process that last ran here is (nearly)
        # free; a real switch pays the context-switch cost.
        core.ctx_pending = (self.ctx_switch_us
                            if core.last_proc is not proc else 0.0)
        core.last_proc = proc
        self._min_vruntime = max(self._min_vruntime, proc.vruntime)
        self._start_slice(core)

    def _start_slice(self, core: _Core) -> None:
        proc = core.current
        assert proc is not None and proc.pending is not None
        if core.slice_handle is not None:
            core.slice_handle.cancel()
        engine = self.engine
        pending_us = proc.pending[0]
        quantum = self.quantum_us
        slice_len = pending_us if pending_us < quantum else quantum
        core.slice_started = engine.now
        core.slice_len = slice_len
        core.slice_handle = engine.schedule(
            slice_len + core.ctx_pending, self._slice_end, core, proc)

    def _charge(self, proc: "KernelProcess", us: float, label: str) -> None:
        if us <= 0:
            return
        proc.vruntime += us * NICE_0_WEIGHT / proc.weight
        proc.cpu_us += us
        proc.cpu_debt += us
        if self.probe is not None:
            self.probe.charge(label, us, proc.name)

    def _settle_ctx(self, core: _Core, proc: "KernelProcess") -> None:
        if core.ctx_pending > 0:
            core.busy_us += core.ctx_pending
            self._charge(proc, core.ctx_pending, "kernel.context_switch")
            core.ctx_pending = 0.0
            if self.probe is not None:
                self.probe.instant("context_switch", cat="kernel",
                                   who=proc.name, core=core.index)

    def _slice_end(self, core: _Core, proc: "KernelProcess") -> None:
        """The burst path (DESIGN.md §3d): the one engine event per slice.

        Hot path, millions per cell.  The charge is inlined, the
        context-switch settle skipped when nothing is pending, and a
        completed burst advances the generator right here, on-core; when
        the next effect is another ``Compute`` the park check, the
        granularity check and the next slice are inlined too.
        """
        if core.current is not proc:
            return  # stale (process was preempted or released)
        core.slice_handle = None
        if core.ctx_pending > 0:
            self._settle_ctx(core, proc)
        ran = core.slice_len
        core.busy_us += ran
        pending = proc.pending
        assert pending is not None
        if ran > 0:
            proc.vruntime += ran * NICE_0_WEIGHT / proc.weight
            proc.cpu_us += ran
            proc.cpu_debt += ran
            if self.probe is not None:
                self.probe.charge(pending[1], ran, proc.name)
        pending[0] -= ran
        if pending[0] > 1e-9:
            # Quantum expired mid-burst: requeue if a peer deserves the core.
            best = self._peek_key()
            if best is not None and best + self.granularity_us <= proc.vruntime:
                self._release(core, requeue=True)
                self._fill_core(core)
            else:
                self._start_slice(core)
            return
        # Burst complete: advance the generator while still on-core.
        proc.pending = None
        effect = proc._step(None)
        if not isinstance(effect, Compute) or proc.core is not core:
            # Blocking, yielding, forking, exiting or finished — or a
            # heavier waker preempted us during the resume: the generic
            # dispatch, then give up the core if nothing else took it.
            if effect is not None or proc.alive:  # None: body finished
                proc._dispatch(effect)
            if core.current is proc and core.slice_handle is None:
                self._release(core, requeue=False)
                self._fill_core(core)
            return
        proc.pending = [effect.us, effect.label]
        # Timeslice exhausted mid-stream (_should_park, inlined): off to
        # the expired array even with no waiter (the O(1) tick does not
        # care).  Otherwise the next burst is displaced only by a waiter
        # beyond the preemption granularity behind us.
        if not (self.o1_model and proc.weight <= NICE_0_WEIGHT and
                proc.cpu_debt - proc.sleep_credit > self.o1_timeslice_us):
            best = self._peek_key() if self._runqueue else None
            if best is None or best + self.granularity_us >= proc.vruntime:
                # _start_slice, inlined: same core, so no switch is pending
                slice_len = effect.us
                if slice_len > self.quantum_us:
                    slice_len = self.quantum_us
                engine = self.engine
                core.slice_started = engine.now
                core.slice_len = slice_len
                core.slice_handle = engine.schedule(
                    slice_len, self._slice_end, core, proc)
                return
        self._release(core, requeue=True)
        self._fill_core(core)

    def _preempt(self, core: _Core) -> None:
        """Evict the running process mid-slice, charging partial time."""
        proc = core.current
        if proc is None:
            return
        if core.slice_handle is not None:
            core.slice_handle.cancel()
            core.slice_handle = None
        self._settle_ctx(core, proc)
        ran = min(self.engine.now - core.slice_started, core.slice_len)
        if ran > 0 and proc.pending is not None:
            core.busy_us += ran
            self._charge(proc, ran, proc.pending[1])
            proc.pending[0] = max(0.0, proc.pending[0] - ran)
        self._release(core, requeue=True)

    def _release(self, core: _Core, requeue: bool) -> None:
        proc = core.current
        core.current = None
        core.ctx_pending = 0.0
        if core.slice_handle is not None:
            core.slice_handle.cancel()
            core.slice_handle = None
        if proc is not None:
            proc.core = None
            if requeue and proc.alive:
                self._push_ready(proc)

    def release_core_of(self, proc: "KernelProcess") -> None:
        """Called when a running process blocks or exits."""
        core = proc.core
        if core is None:
            return
        self._release(core, requeue=False)
        self._fill_core(core)

    def yield_cpu(self, proc: "KernelProcess") -> None:
        """``sched_yield``: go behind every currently-ready peer."""
        core = proc.core
        proc.vruntime = max(proc.vruntime, self._max_key()) + 1e-6
        if core is not None:
            self._release(core, requeue=True)
            self._fill_core(core)
        else:
            self._push_ready(proc)

    def _max_key(self) -> float:
        best = self._min_vruntime
        for vruntime, __, proc in self._runqueue:
            if proc.in_runqueue and vruntime > best:
                best = vruntime
        for core in self.cores:
            if core.current is not None and core.current.vruntime > best:
                best = core.current.vruntime
        return best

    # ------------------------------------------------------------------
    # SIGSTOP / SIGCONT
    # ------------------------------------------------------------------
    def suspend(self, proc: "KernelProcess") -> None:
        """Stop giving ``proc`` the CPU (SIGSTOP-style).

        A running process is evicted mid-slice (partial time charged);
        a queued one is lazily removed.  The process keeps advancing
        through non-CPU effects until its next ``Compute``, then stalls
        holding whatever locks/buffers it holds.
        """
        if proc.suspended or not proc.alive:
            return
        proc.suspended = True
        if proc.core is not None:
            self._preempt(proc.core)
            self._fill_core_any()
        proc.in_runqueue = False  # lazy heap removal (_pop_ready skips)

    def resume(self, proc: "KernelProcess") -> None:
        """Undo :meth:`suspend`; the process competes for the CPU again."""
        if not proc.suspended:
            return
        proc.suspended = False
        if proc.alive and proc.pending is not None:
            self.make_ready(proc)

    def _fill_core_any(self) -> None:
        idle = self._idle_core()
        if idle is not None:
            self._fill_core(idle)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def total_busy_us(self) -> float:
        """CPU time consumed so far across cores (completed slices only)."""
        return sum(core.busy_us for core in self.cores)

    def runnable(self) -> int:
        """Currently running + ready process count."""
        ready = sum(1 for __, __, p in self._runqueue if p.in_runqueue and p.alive)
        running = sum(1 for core in self.cores if core.current is not None)
        return ready + running


class KernelProcess(SimProcess):
    """A process whose CPU effects contend for the scheduler's cores."""

    def __init__(self, engine: Engine, body: Iterator, name: str,
                 nice: int, scheduler: Scheduler) -> None:
        super().__init__(engine, body, name=name)
        self.scheduler = scheduler
        self.nice = nice
        self.weight = nice_to_weight(nice)
        self.vruntime = 0.0
        self.cpu_us = 0.0
        self.core: Optional[_Core] = None
        self.in_runqueue = False
        #: O(1)-model interactivity bookkeeping
        self.cpu_debt = 0.0
        self.sleep_credit = 0.0
        self.blocked_at: Optional[float] = None
        self.parked = False
        self.epochs_parked = 0
        #: a suspended process never runs (:meth:`Scheduler.suspend`)
        self.suspended = False
        #: [remaining_us, label] of the in-progress Compute, if any
        self.pending: Optional[list] = None
        #: attached by Machine.spawn
        self.fdtable = None

    # -- effect handling ------------------------------------------------
    def _on_compute(self, effect: Compute, epoch: int) -> None:
        # Off-core only: an on-core process's next burst is started by
        # Scheduler._slice_end (make_ready ignores a process on a core).
        self.pending = [effect.us, effect.label]
        self.scheduler.make_ready(self)

    def _on_yield(self, epoch: int) -> None:
        # A zero-length marker burst keeps the slice machinery uniform.
        self.pending = [0.0, _YIELD_LABEL]
        self.scheduler.yield_cpu(self)

    def _dispatch(self, effect) -> None:
        if isinstance(effect, (Compute, YieldCPU)):
            super()._dispatch(effect)
            return
        # Blocking (Wait/Sleep), forking or exiting: release the core first.
        self.blocked_at = self.engine.now
        probe = self.scheduler.probe
        if probe is not None and isinstance(effect, Wait) \
                and effect.why is not None:
            probe.block_start(self.name, effect.why)
        if self.core is not None:
            self.scheduler.release_core_of(self)
        super()._dispatch(effect)

    def _spawn(self, body: Iterator, name: str) -> "KernelProcess":
        return self.scheduler.spawn(body, name=name, nice=self.nice)

    def _finish(self, value: Any) -> None:
        if self.core is not None:
            self.scheduler.release_core_of(self)
        super()._finish(value)

    def kill(self) -> None:
        if self.core is not None:
            self.scheduler.release_core_of(self)
        self.in_runqueue = False
        super().kill()

    def __repr__(self) -> str:
        return (f"<KernelProcess {self.name!r} nice={self.nice} "
                f"{self.state.value}>")
