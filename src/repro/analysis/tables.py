"""Rendering measured grids next to the paper's figures."""

from typing import Dict, Optional

from repro.analysis.paper_data import CLIENT_COUNTS, PAPER_FIGURES, SERIES

_LABELS = {
    "tcp-50": "TCP 50 ops/conn",
    "tcp-500": "TCP 500 ops/conn",
    "tcp-persistent": "TCP persistent",
    "udp": "UDP",
    "sctp": "SCTP",
    "tcp-threaded": "TCP threaded",
    "tcp-threaded-50": "TCP threaded 50/conn",
}


def _fmt(value: Optional[float]) -> str:
    return f"{value:>8.0f}" if value is not None else f"{'-':>8}"


def render_comparison(figure_key: str,
                      measured: Dict[str, Dict[int, float]]) -> str:
    """Measured vs paper, with the TCP/UDP ratio that carries the paper's
    claims."""
    paper = PAPER_FIGURES[figure_key]
    lines = [f"== {figure_key}: measured vs paper ==",
             f"{'series':<18}{'clients':>8}{'measured':>10}{'paper':>10}"
             f"{'meas/udp':>10}{'paper/udp':>10}"]
    for name in SERIES:
        if name not in measured:
            continue
        for count in CLIENT_COUNTS:
            got = measured[name].get(count)
            want = paper[name].get(count)
            udp_got = measured.get("udp", {}).get(count)
            udp_want = paper["udp"].get(count)
            ratio_got = (got / udp_got) if got and udp_got else None
            ratio_want = (want / udp_want) if want and udp_want else None
            row = (f"{_LABELS.get(name, name):<18}{count:>8}"
                   f"{_fmt(got):>10}{_fmt(want):>10}")
            row += f"{ratio_got:>10.2f}" if ratio_got is not None \
                else f"{'-':>10}"
            row += f"{ratio_want:>10.2f}" if ratio_want is not None \
                else f"{'-':>10}"
            lines.append(row)
    return "\n".join(lines)


def throughput_grid(results) -> Dict[str, Dict[int, float]]:
    """Extract ops/s from a ``results[series][clients]`` figure grid."""
    return {name: {count: res.throughput_ops_s
                   for count, res in row.items()}
            for name, row in results.items()}
