"""Effect primitives yielded by simulated-process generators.

A process body is a Python generator.  Each ``yield`` hands the driver an
effect describing what the process wants to do next::

    def body():
        yield Compute(12.5, label="parse_msg")   # burn 12.5 µs of CPU
        value = yield Wait(some_event)           # block until event fires
        yield Sleep(1000.0)                      # 1 ms off-CPU delay
        yield Exit(value)

How ``Compute`` and ``YieldCPU`` behave depends on the driver: a bare
:class:`~repro.sim.process.SimProcess` treats CPU as uncontended (clients
are "never the bottleneck"), while a kernel-scheduled process competes for
cores under :class:`repro.kernel.scheduler.Scheduler`.
"""

from typing import Any, Optional


class Effect:
    """Base class for everything a process may yield."""

    __slots__ = ()


class Compute(Effect):
    """Consume ``us`` microseconds of CPU time.

    ``label`` names the simulated function for the profiler; the paper's
    OProfile results are reproduced by aggregating these labels.
    """

    __slots__ = ("us", "label")

    def __init__(self, us: float, label: str = "anon") -> None:
        if us < 0:
            raise ValueError(f"negative compute time: {us}")
        self.us = float(us)
        self.label = label


class Sleep(Effect):
    """Block off-CPU for ``us`` microseconds (a timer, not CPU burn)."""

    __slots__ = ("us",)

    def __init__(self, us: float) -> None:
        if us < 0:
            raise ValueError(f"negative sleep time: {us}")
        self.us = float(us)


class Wait(Effect):
    """Block until an :class:`~repro.sim.events.Event` or ``Signal`` wakes
    us; the fired value becomes the result of the ``yield``.

    ``why`` names the wait state for latency attribution (one of
    ``repro.obs.causal.COMPONENTS``: a blocked IPC transfer is ``"ipc"``,
    a poller wait ``"sockq"``, ...); ``None`` attributes nothing.
    """

    __slots__ = ("source", "why")

    def __init__(self, source, why: Optional[str] = None) -> None:
        self.source = source
        self.why = why


class YieldCPU(Effect):
    """Relinquish the CPU voluntarily (``sched_yield``).

    OpenSER's userspace spinlocks call ``sched_yield`` when contended; under
    the kernel scheduler this requeues the process behind its peers, which
    is exactly the behaviour behind the paper's §5.2 profile observation
    that "the top ten kernel functions are all in the Linux scheduler".
    """

    __slots__ = ()


class Fork(Effect):
    """Spawn a child process running ``body`` in the same scheduling domain.

    The ``yield`` evaluates to the child process object.
    """

    __slots__ = ("body", "name")

    def __init__(self, body, name: str = "child") -> None:
        self.body = body
        self.name = name


class Exit(Effect):
    """Terminate the process with ``value`` as its result."""

    __slots__ = ("value",)

    def __init__(self, value: Any = None) -> None:
        self.value = value
