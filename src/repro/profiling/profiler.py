"""CPU-time attribution by function label."""

from typing import Dict


class Profiler:
    """Aggregates simulated CPU time per function label.

    Attached to a :class:`~repro.kernel.scheduler.Scheduler`; every charged
    burst calls :meth:`record`.  Labels beginning with ``kernel.`` play the
    role of OProfile's kernel-image samples.
    """

    def __init__(self, engine) -> None:
        self.engine = engine
        self.by_label: Dict[str, float] = {}
        self.total_us = 0.0

    def record(self, label: str, us: float, proc_name: str = "?") -> None:
        """The probe's ``charge(label, us, proc)`` hook; the profile is
        aggregated by label only."""
        if us <= 0:
            return
        self.by_label[label] = self.by_label.get(label, 0.0) + us
        self.total_us += us

    # -- windowed measurement --------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        return dict(self.by_label)

    def delta(self, earlier: Dict[str, float]) -> Dict[str, float]:
        """Positive growth per label since ``earlier`` (totals only grow)."""
        return {key: total - earlier.get(key, 0.0)
                for key, total in self.by_label.items()
                if total - earlier.get(key, 0.0) > 0.0}

    def share(self, label: str) -> float:
        """Fraction of all profiled CPU time spent in ``label``."""
        if self.total_us == 0.0:
            return 0.0
        return self.by_label.get(label, 0.0) / self.total_us
