"""The overload figure: goodput and 503-rate vs offered load.

The paper's closed-loop benchmark stops at saturation; this figure
drives *open-loop* Poisson arrivals from 0.5× to 3× measured capacity
and shows what the paper's architectures do past the edge:

- with ``controller="none"`` over UDP, goodput collapses — queueing
  delay crosses T1, clients retransmit (timer A/E), and the server
  spends its CPU absorbing duplicates of calls it will never finish;
- with a controller, excess INVITEs are shed with a cheap 503 and
  goodput holds near capacity (the shed calls fail *fast* instead of
  failing slow while poisoning the admitted ones);
- over TCP there is no retransmission amplification, but the window
  controller additionally keeps the supervisor/IPC path from drowning.

**Capacity calibration.**  Each series first runs one *closed-loop*
cell (same client count, same compressed timers); its throughput —
which self-limits at saturation — defines ``capacity_cps`` (2 measured
operations, INVITE + BYE, per call).  Offered rates are then
``factor × capacity_cps``, so the x-axis is in capacity multiples and
the figure is robust to cost-model recalibration.

**Time compression.**  Real SIP T1 is 500 ms; waiting seconds of
simulated time for retransmission dynamics is wasteful, so overload
cells compress T1 to :data:`OVERLOAD_T1_US` (T2/T4 follow at the RFC's
8×/10× ratios, on the proxy and the phones alike).  Queueing delays
scale with per-message service time, not with T1, so compression makes
the collapse *harder* to reproduce, never easier — an uncompressed run
only collapses more deeply.

Everything runs through :func:`repro.analysis.runner.run_cells`, so
cells cache on disk and fan out across processes like any figure grid.
"""

from typing import Dict, Optional, Sequence

from repro.analysis.experiments import ExperimentSpec
from repro.analysis.runner import run_cells

#: compressed SIP T1 for overload cells (real: 500 ms)
OVERLOAD_T1_US = 20_000.0

#: offered load as multiples of measured closed-loop capacity
DEFAULT_LOAD_FACTORS = (0.5, 1.0, 1.5, 2.0, 3.0)

DEFAULT_SERIES = ("udp", "tcp-persistent")
DEFAULT_CONTROLLERS = ("none", "local-occupancy")

#: overload cells need no connection-churn warmup, just registration
#: plus a few control intervals; the measure window spans dozens of
#: retransmission intervals (64×T1 = 1.28 s is the give-up horizon)
DEFAULT_WARMUP_US = 300_000.0
DEFAULT_MEASURE_US = 600_000.0


def capacity_spec(series: str, clients: int, seed: int = 1,
                  workers: Optional[int] = None,
                  warmup_us: float = DEFAULT_WARMUP_US,
                  measure_us: float = DEFAULT_MEASURE_US,
                  scale_windows: bool = True) -> ExperimentSpec:
    """The closed-loop calibration cell for one overload series."""
    return ExperimentSpec(series=series, clients=clients, seed=seed,
                          workers=workers, warmup_us=warmup_us,
                          measure_us=measure_us,
                          sip_t1_us=OVERLOAD_T1_US,
                          scale_windows=scale_windows)


def overload_spec(series: str, clients: int, offered_cps: float,
                  controller: str, seed: int = 1,
                  workers: Optional[int] = None,
                  warmup_us: float = DEFAULT_WARMUP_US,
                  measure_us: float = DEFAULT_MEASURE_US,
                  scale_windows: bool = True,
                  sample_us: Optional[float] = None) -> ExperimentSpec:
    """One open-loop cell of the overload grid."""
    return ExperimentSpec(series=series, clients=clients, seed=seed,
                          workers=workers, warmup_us=warmup_us,
                          measure_us=measure_us,
                          sip_t1_us=OVERLOAD_T1_US,
                          offered_cps=offered_cps,
                          controller=controller,
                          sample_us=sample_us,
                          scale_windows=scale_windows)


def measure_capacity(series: Sequence[str], clients: int, seed: int,
                     workers: Optional[int], jobs: int,
                     cache) -> Dict[str, float]:
    """Closed-loop capacity in calls/s per series, from one
    :func:`capacity_spec` cell each (shared by the overload and faults
    figures, so the cells cache across both)."""
    outcomes = run_cells([capacity_spec(name, clients=clients, seed=seed,
                                        workers=workers)
                          for name in series], jobs=jobs, cache=cache)
    # Two measured operations (INVITE + BYE) complete per call.
    return {name: outcome.result.throughput_ops_s / 2.0
            for name, outcome in zip(series, outcomes)}


def _cell_summary(factor: float, result) -> Dict:
    """The JSON-ready per-cell record carried in the figure data."""
    return {
        "factor": factor,
        "offered_cps": result.offered_cps,
        "goodput_cps": result.goodput_cps,
        "calls_attempted": result.calls_attempted,
        "calls_completed": result.calls_completed,
        "calls_failed": result.calls_failed,
        "rejections_503": result.rejections_503,
        "rejection_rate_503_s": (result.rejections_503
                                 / (result.duration_us / 1e6)
                                 if result.duration_us > 0 else 0.0),
        "client_retransmissions": result.client_retransmissions,
        "retransmissions_absorbed": result.proxy_stats.get(
            "retransmissions_absorbed", 0),
        "cpu_utilization": result.cpu_utilization,
    }


def run_overload_figure(series: Sequence[str] = DEFAULT_SERIES,
                        controllers: Sequence[str] = DEFAULT_CONTROLLERS,
                        load_factors: Sequence[float] = DEFAULT_LOAD_FACTORS,
                        clients: int = 100, seed: int = 1,
                        workers: Optional[int] = None,
                        sample_us: Optional[float] = None,
                        jobs: int = 1, cache=None) -> Dict:
    """Run the full overload grid; returns the JSON-ready figure data.

    Phase 1 measures closed-loop capacity per series; phase 2 fans out
    ``series × controllers × load_factors`` open-loop cells.  Both
    phases go through the cached parallel runner.
    """
    capacity = measure_capacity(series, clients, seed, workers, jobs, cache)
    specs, index = [], []
    for name in series:
        for controller in controllers:
            for factor in load_factors:
                specs.append(overload_spec(
                    name, clients=clients,
                    offered_cps=factor * capacity[name],
                    controller=controller, seed=seed, workers=workers,
                    sample_us=sample_us))
                index.append((name, controller, factor))
    outcomes = run_cells(specs, jobs=jobs, cache=cache)

    grid: Dict[str, Dict[str, list]] = {
        name: {controller: [] for controller in controllers}
        for name in series}
    for (name, controller, factor), outcome in zip(index, outcomes):
        grid[name][controller].append(_cell_summary(factor, outcome.result))
    return {
        "t1_us": OVERLOAD_T1_US,
        "clients": clients,
        "seed": seed,
        "load_factors": list(load_factors),
        "capacity_cps": capacity,
        "grid": grid,
    }


def render_overload_figure(data: Dict) -> str:
    """Text rendering of :func:`run_overload_figure` output."""
    lines = []
    factors = data["load_factors"]
    for name, by_controller in data["grid"].items():
        controllers = list(by_controller)
        lines.append(f"== {name}  "
                     f"(closed-loop capacity {data['capacity_cps'][name]:.0f}"
                     " calls/s) ==")
        header = f"{'offered':>11}"
        for controller in controllers:
            header += f"  {controller + ' goodput':>26}{'503/s':>8}"
        lines.append(header)
        for k, __ in enumerate(factors):
            cells = [by_controller[c][k] for c in controllers]
            row = f"{cells[0]['offered_cps']:7.0f} cps"
            for cell in cells:
                goodput = cell["goodput_cps"]
                share = (goodput / cell["offered_cps"]
                         if cell["offered_cps"] else 0.0)
                row += (f"  {goodput:12.0f} cps ({share:4.0%})"
                        f"{cell['rejection_rate_503_s']:8.0f}")
            lines.append(row)
        lines.append("")
    return "\n".join(lines)
