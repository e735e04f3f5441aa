"""The FaultPlan DSL: deterministic, timed fault schedules.

A :class:`FaultPlan` is an ordered list of fault events, each pinned to
an offset **relative to the start of the measurement window** (the
injector arms at t0, so warmup and registration are never perturbed and
the same plan hits the same simulated instants for every seed).  The one
kind is :class:`WorkerCrash`, applied once; recovery, if any, is the
watchdog's job, not the plan's.

Plans serialize to plain JSON (``to_dict``/``from_dict``) so they ride
on :class:`~repro.analysis.experiments.ExperimentSpec` through the
result cache and the parallel runner unchanged.  The plan contains no
randomness of its own, so the same seed and plan reproduce the same run.
"""

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, List


class FaultPlanError(ValueError):
    """An invalid plan (bad times or workers, unknown kinds or fields)."""


@dataclass
class WorkerCrash:
    """Kill one worker process outright (one-shot; SIGKILL-style),
    ``start_us`` after the measurement window opens."""

    start_us: float = 0.0
    worker: int = 0
    kind = "worker-crash"

    def validate(self) -> None:
        # A NaN or infinite offset never fires, so the crash would be
        # silently dropped; a bool or fractional worker is no worker.
        if (isinstance(self.start_us, bool)
                or not isinstance(self.start_us, (int, float))
                or not 0 <= self.start_us < math.inf):
            raise FaultPlanError(
                f"{self.kind}: start_us must be a finite number >= 0")
        if (isinstance(self.worker, bool) or not isinstance(self.worker, int)
                or self.worker < 0):
            raise FaultPlanError(f"{self.kind}: worker must be an int >= 0")

    def to_dict(self) -> Dict:
        payload = dataclasses.asdict(self)
        payload["kind"] = self.kind
        return payload


class FaultPlan:
    """An ordered, validated schedule of fault events."""

    def __init__(self, events: List[WorkerCrash]) -> None:
        for event in events:
            if not isinstance(event, WorkerCrash):
                raise FaultPlanError(f"not a fault event: {event!r}")
            event.validate()
        self.events = sorted(events, key=lambda e: e.start_us)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict:
        return {"events": [event.to_dict() for event in self.events]}

    @classmethod
    def from_dict(cls, payload: Dict) -> "FaultPlan":
        events = []
        fields = {f.name for f in dataclasses.fields(WorkerCrash)}
        for entry in payload.get("events", ()):
            entry = dict(entry)
            kind = entry.pop("kind", None)
            if kind != WorkerCrash.kind:
                raise FaultPlanError(f"unknown fault kind {kind!r}")
            unknown = set(entry) - fields
            if unknown:
                raise FaultPlanError(
                    f"{kind}: unknown fields {sorted(unknown)}")
            events.append(WorkerCrash(**entry))
        return cls(events)
