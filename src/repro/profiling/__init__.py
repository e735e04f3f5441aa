"""Simulated OProfile.

Every CPU burst on the server carries a function label; the profiler
aggregates time per label, which regenerates the paper's §5 profile
observations (IPC at 12.0% → 4.6% with the fd cache; the idle-close
function tripling under churn; scheduler functions dominating the kernel
profile during sched_yield storms).
"""

from repro.profiling.profiler import Profiler
from repro.profiling.report import ProfileReport, top_functions

__all__ = ["Profiler", "ProfileReport", "top_functions"]
