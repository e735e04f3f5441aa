"""Rendering profiles the way the paper discusses them."""

from typing import Dict, List, Tuple


def top_functions(samples: Dict[str, float], n: int = 15,
                  kernel_only: bool = False) -> List[Tuple[str, float, float]]:
    """The top-``n`` (label, us, share) rows, like an OProfile report.

    ``kernel_only=True`` restricts to ``kernel.``/lock labels, matching
    the paper's "top fifteen functions in the kernel" observations.
    """
    if kernel_only:
        samples = {label: us for label, us in samples.items()
                   if label.startswith("kernel.") or ".spin" in label}
    total = sum(samples.values()) or 1.0
    rows = sorted(samples.items(), key=lambda kv: kv[1], reverse=True)[:n]
    return [(label, us, us / total) for label, us in rows]


class ProfileReport:
    """Formats a profile window as text."""

    def __init__(self, samples: Dict[str, float], title: str = "profile") -> None:
        self.samples = samples
        self.title = title

    def render(self, n: int = 15) -> str:
        rows = top_functions(self.samples, n=n)
        width = max([len("function")] + [len(label) for label, __, __ in rows])
        lines = [f"== {self.title} ==",
                 f"{'function':<{width}}  {'cpu (ms)':>10}  {'share':>7}"]
        for label, us, share in rows:
            lines.append(f"{label:<{width}}  {us / 1000.0:>10.2f}  "
                         f"{share * 100.0:>6.1f}%")
        return "\n".join(lines)
