"""The instrumentation seam: one probe, a fixed hook set, three sinks.

Every instrumented component holds one attribute, ``probe``, which is
``None`` when nothing is observed — emission sites guard with
``if probe is not None`` and the unobserved hot path costs one attribute
load and a branch.  A live :class:`Probe` owns the profiler, the span
tracer and the causal tracer (each ``None`` or live) and exposes the
hooks the simulator calls; DESIGN.md §3b tabulates hook → caller → sink.

A hook with a single consumer *is* that sink's bound method (no extra
call frame on the observed path); only ``charge`` can fan out.  A hook
whose sink is off is :func:`_off` and returns ``None`` — no span from
``begin``, no trace id from ``sniff`` — which the call sites' existing
``span is not None`` / ``tid is None`` handling covers.  ``proc`` is
always the full scheduler process name (``server/tcp-worker-0``).
"""

from repro.obs.causal import CausalTracer
from repro.obs.tracer import Tracer
from repro.profiling.profiler import Profiler


def _off(*args, **kwargs) -> None:
    """A hook whose sink is not attached."""


class Probe:
    """What one :class:`~repro.testbed.Testbed` observes, and how."""

    def __init__(self, engine, profile: bool, trace: bool,
                 causal: bool) -> None:
        self.profiler = profiler = Profiler(engine) if profile else None
        self.tracer = tracer = Tracer(engine) if trace else None
        # One causal tracer for the whole testbed: trace ids are stamped
        # on the client machines and consumed on the server.
        self.causal = causal = CausalTracer(engine) if causal else None
        if tracer is not None:
            self.begin, self.end = tracer.begin, tracer.end
            self.instant = tracer.instant
        else:
            self.begin = self.end = self.instant = _off
        if causal is not None:
            self.runq_push = causal.on_runq_push
            self.runq_pop = causal.on_runq_pop
            self.block_start = causal.on_block_start
            self.block_end = causal.on_block_end
            self.sniff, self.note = causal.trace_id, causal.note
            self.mark, self.count = causal.mark, causal.count
            self.ctx_begin, self.ctx_end = causal.ctx_begin, causal.ctx_end
            self.charge = (self._charge_both if profiler is not None
                           else self._charge_causal)
        else:
            self.runq_push = self.runq_pop = _off
            self.block_start = self.block_end = _off
            self.sniff = self.note = self.mark = self.count = _off
            self.ctx_begin = self.ctx_end = _off
            self.charge = profiler.record if profiler is not None else _off

    def _charge_both(self, label: str, us: float, proc_name: str) -> None:
        self.profiler.record(label, us, proc_name)
        self.causal.on_charge(proc_name, label, us)

    def _charge_causal(self, label: str, us: float, proc_name: str) -> None:
        self.causal.on_charge(proc_name, label, us)
