"""Simulated operating-system substrate.

This package models the parts of Linux 2.6.20 that the paper's results
depend on:

- :mod:`~repro.kernel.scheduler` — a multi-core weighted-fair CPU
  scheduler with the real Linux nice→weight table, wakeup preemption and
  ``sched_yield``.  Reproduces the §4.3 supervisor-starvation effect.
- :mod:`~repro.kernel.locks` — OpenSER-style userspace spinlocks that fall
  back to ``sched_yield`` (the §5.2 "top ten kernel functions are all in
  the Linux scheduler" effect).
- :mod:`~repro.kernel.ipc` — bounded-buffer duplex channels with blocking
  send/recv and SCM_RIGHTS-style fd passing (the Fig. 4 IPC overhead and
  the §6 deadlock).
- :mod:`~repro.kernel.fdtable` — per-process descriptor tables with
  refcounted open-file descriptions and an EMFILE limit.
- :mod:`~repro.kernel.sockets` — socket buffers, port allocation with
  TIME_WAIT (the §4.3 port-starvation effect).
- :mod:`~repro.kernel.machine` — a host assembling cores + kernel + NIC.
- :mod:`~repro.kernel.poller` — an epoll-like readiness multiplexor.
- :mod:`~repro.kernel.timerwheel` — periodic timers (one-shot timers are
  plain engine handles).
"""

from repro.kernel.scheduler import Scheduler, KernelProcess, nice_to_weight
from repro.kernel.locks import SpinLock
from repro.kernel.ipc import IpcChannel, IpcEndpoint, FdPayload, IpcMessage
from repro.kernel.fdtable import FdTable, FileDescription, EmfileError, BadFdError
from repro.kernel.sockets import (
    DatagramBuffer,
    StreamBuffer,
    PortAllocator,
    PortExhaustedError,
)
from repro.kernel.machine import Machine
from repro.kernel.poller import Poller

__all__ = [
    "Scheduler",
    "KernelProcess",
    "nice_to_weight",
    "SpinLock",
    "IpcChannel",
    "IpcEndpoint",
    "FdPayload",
    "IpcMessage",
    "FdTable",
    "FileDescription",
    "EmfileError",
    "BadFdError",
    "DatagramBuffer",
    "StreamBuffer",
    "PortAllocator",
    "PortExhaustedError",
    "Machine",
    "Poller",
]
