"""Text timeline report: metric series as terminal sparklines.

Companion to :class:`repro.profiling.report.ProfileReport` — where that
shows *where* CPU went in aggregate, this shows *when* things happened:
each sampled series is one row with min/mean/max/last plus a unicode
sparkline over the run, so queue build-up, cache warm-up and IPC-share
collapse are visible without leaving the terminal.
"""

from typing import Dict, List, Optional

_BARS = "▁▂▃▄▅▆▇█"
#: sparkline columns
WIDTH = 48


def sparkline(values) -> str:
    """Render ``values`` as a fixed-width unicode sparkline.

    Longer series are downsampled by averaging equal slices; a flat
    series renders as its lowest bar rather than dividing by zero.
    """
    values = [float(v) for v in values]
    if not values:
        return ""
    if len(values) > WIDTH:
        step = len(values) / WIDTH
        values = [
            sum(chunk) / len(chunk)
            for chunk in (values[int(i * step):max(int(i * step) + 1,
                                                   int((i + 1) * step))]
                          for i in range(WIDTH))
        ]
    lo, hi = min(values), max(values)
    span = hi - lo
    if span <= 0:
        return _BARS[0] * len(values)
    top = len(_BARS) - 1
    return "".join(_BARS[int((v - lo) / span * top)] for v in values)


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 1e6:
        return f"{value / 1e6:.2f}M"
    if magnitude >= 1e3:
        return f"{value / 1e3:.1f}k"
    if magnitude >= 1:
        return f"{value:.1f}"
    return f"{value:.3f}"


class TimelineReport:
    """Renders one cell's serialized metrics dict as a text table."""

    def __init__(self, metrics: Dict, title: str = "timeline") -> None:
        self.metrics = metrics
        self.title = title

    def render(self, names: Optional[List[str]] = None) -> str:
        series = self.metrics.get("series", {})
        if names is None:
            names = sorted(series)
        rows = [(name, series[name]) for name in names if series.get(name)]
        if not rows:
            return f"{self.title}: no samples"
        interval_ms = self.metrics.get("interval_us", 0.0) / 1000.0
        samples = self.metrics.get("samples", len(rows[0][1]))
        span_ms = interval_ms * max(samples - 1, 0)
        label_w = max(len("series"), max(len(name) for name, _ in rows))
        lines = [
            f"{self.title} — {samples} samples @ {interval_ms:g} ms "
            f"({span_ms:g} ms span)",
            f"{'series':<{label_w}}  {'min':>8} {'mean':>8} {'max':>8} "
            f"{'last':>8}  trend",
        ]
        for name, values in rows:
            floats = [float(v) for v in values]
            mean = sum(floats) / len(floats)
            lines.append(
                f"{name:<{label_w}}  {_fmt(min(floats)):>8} {_fmt(mean):>8} "
                f"{_fmt(max(floats)):>8} {_fmt(floats[-1]):>8}  "
                f"{sparkline(floats)}"
            )
        return "\n".join(lines)
