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
        """Positive growth per label since ``earlier``.

        Totals only ever grow, so a decrease means the snapshot predates
        a :meth:`reset` — a silent zero there would corrupt any windowed
        share computation, so it raises instead.
        """
        current = self.by_label
        stale = [key for key, total in earlier.items()
                 if current.get(key, 0.0) < total]
        if stale:
            raise ValueError(
                f"stale profiler snapshot: label totals decreased for "
                f"{sorted(stale)[:3]} (profiler was reset after the snapshot)")
        return {key: total - earlier.get(key, 0.0)
                for key, total in current.items()
                if total - earlier.get(key, 0.0) > 0.0}

    def share(self, label: str) -> float:
        """Fraction of all profiled CPU time spent in ``label``."""
        if self.total_us == 0.0:
            return 0.0
        return self.by_label.get(label, 0.0) / self.total_us

    def reset(self) -> None:
        self.by_label.clear()
        self.total_us = 0.0

    def __repr__(self) -> str:
        return (f"<Profiler labels={len(self.by_label)} "
                f"total={self.total_us / 1e6:.3f}s>")
