"""Log-bucketed streaming latency histograms.

:class:`StreamingHistogram` records values into geometrically-spaced
buckets (5% resolution), so memory is O(buckets), inserts are
O(1), and any percentile is recoverable to within one bucket's relative
width.  Journey attribution (:mod:`repro.obs.attribution`) builds one per
caller and merges them into the run's latency summary.
"""

import math
from typing import Dict, Optional

#: relative bucket width (5% ⇒ percentile error ≤ ~5%)
RESOLUTION = 0.05
#: the percentiles every latency summary reports, exact or streaming
PERCENTILE_POINTS = (50, 95, 99, 99.9)
_BASE = 1.0 + RESOLUTION
_INV_LOG_BASE = 1.0 / math.log(_BASE)


class StreamingHistogram:
    """Streaming histogram with geometric buckets for positive values.

    Non-positive values (a zero-latency sample is possible at simulated
    instants) are counted in a dedicated underflow bucket valued 0.
    """

    __slots__ = ("buckets", "count", "total", "min", "max", "zeros")

    def __init__(self) -> None:
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.zeros = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value <= 0.0:
            self.zeros += 1
            return
        index = math.floor(math.log(value) * _INV_LOG_BASE)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def merge(self, other: "StreamingHistogram") -> "StreamingHistogram":
        """Fold ``other`` into this histogram."""
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n
        self.count += other.count
        self.total += other.total
        self.zeros += other.zeros
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        return self

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, point: float) -> float:
        """Estimated value at percentile ``point`` (0 < point ≤ 100)."""
        if not self.count:
            return 0.0
        rank = max(1, min(self.count,
                          math.ceil(point / 100.0 * self.count)))
        if rank <= self.zeros:
            return 0.0
        seen = self.zeros
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                # Geometric midpoint of the bucket, clamped to observed
                # extremes so p0/p100 never overshoot the data.
                value = _BASE ** (index + 0.5)
                if self.max is not None:
                    value = min(value, self.max)
                if self.min is not None:
                    value = max(value, self.min)
                return value
        return self.max if self.max is not None else 0.0

    def percentiles(self) -> Dict[str, float]:
        """Same shape as :func:`repro.clients.workload.percentiles`."""
        if not self.count:
            return {}
        out = {f"p{point:g}": self.percentile(point)
               for point in PERCENTILE_POINTS}
        out["mean"] = self.mean
        return out

    def __len__(self) -> int:
        return self.count
