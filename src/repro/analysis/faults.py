"""The faults figure: goodput before, during and after injected faults.

Each cell drives open-loop Poisson load at ``load_factor ×`` the
series' measured closed-loop capacity (same calibration as the overload
figure), injects a :class:`~repro.faults.FaultPlan` a fixed offset into
the measurement window, and splits the sampled ``client_goodput_cps``
series into three windows:

- **pre**    — ``[t0, t0 + fault_at_us)``: the healthy baseline;
- **during** — ``[fault_at_us, fault_at_us + SETTLE_US)``: the damage
  plus detection/recovery transient;
- **post**   — ``[fault_at_us + SETTLE_US, end]``: where a resilient
  server is back near baseline.

``recovery_ratio = post / pre`` is the figure's headline number: with
the watchdog a worker-crash run recovers to ≥ 0.9, without it the
crashed worker's share of the round-robin assignment (and, with
blocking sends, eventually the whole supervisor) stays dark.

Fault cells pin ``scale_windows=False``: the pre/during/post arithmetic
needs the fault offset and the window edges at fixed simulated times,
and detection timestamps stay seed-reproducible.
"""

from typing import Dict, Optional, Sequence

from repro.analysis.experiments import ExperimentSpec
from repro.analysis.overload import OVERLOAD_T1_US, measure_capacity
from repro.analysis.runner import run_cells
from repro.faults import FaultPlan, WorkerCrash
from repro.obs.metrics import series_window_mean

DEFAULT_SERIES = ("tcp-persistent",)
#: offered load as a fraction of closed-loop capacity — below the edge,
#: so goodput changes isolate the *fault*, not overload
DEFAULT_LOAD_FACTOR = 0.7

WARMUP_US = 300_000.0
MEASURE_US = 900_000.0
#: fault offset into the measurement window
DEFAULT_FAULT_AT_US = 300_000.0
#: transient allowance between "fault hits" and "recovery judged"
SETTLE_US = 200_000.0

#: metric sampling interval for the goodput series
SAMPLE_US = 10_000.0


def faults_spec(series: str, clients: int, offered_cps: float,
                plan: FaultPlan, watchdog: bool, seed: int = 1,
                workers: Optional[int] = None) -> ExperimentSpec:
    """One open-loop fault-injection cell."""
    return ExperimentSpec(series=series, clients=clients, seed=seed,
                          workers=workers, warmup_us=WARMUP_US,
                          measure_us=MEASURE_US,
                          sip_t1_us=OVERLOAD_T1_US,
                          offered_cps=offered_cps,
                          sample_us=SAMPLE_US,
                          scale_windows=False,
                          fault_plan=plan.to_dict(),
                          detect_deadlocks=True,
                          watchdog=watchdog)


def _cell_summary(result, fault_at_us: float) -> Dict:
    """Windowed goodput + fault record for one cell (JSON-ready)."""
    t0, t_end = result.metrics["window_us"]
    pre = series_window_mean(result.metrics, "client_goodput_cps",
                             from_us=t0, to_us=t0 + fault_at_us)
    during = series_window_mean(result.metrics, "client_goodput_cps",
                                from_us=t0 + fault_at_us,
                                to_us=t0 + fault_at_us + SETTLE_US)
    post = series_window_mean(result.metrics, "client_goodput_cps",
                              from_us=t0 + fault_at_us + SETTLE_US,
                              to_us=t_end)
    faults = result.faults or {}
    return {
        "offered_cps": result.offered_cps,
        "goodput_cps": result.goodput_cps,
        "pre_goodput_cps": pre,
        "during_goodput_cps": during,
        "post_goodput_cps": post,
        "recovery_ratio": post / pre if pre > 0 else 0.0,
        "calls_completed": result.calls_completed,
        "calls_failed": result.calls_failed,
        "injected": faults.get("injected", []),
        "deadlocks": faults.get("deadlocks", []),
        "restarts": faults.get("restarts", []),
        "workers_restarted": result.proxy_stats.get("workers_restarted", 0),
        "conns_redispatched": result.proxy_stats.get(
            "conns_redispatched", 0),
    }


def run_faults_figure(series: Sequence[str] = DEFAULT_SERIES,
                      clients: int = 100, seed: int = 1,
                      workers: Optional[int] = None,
                      load_factor: float = DEFAULT_LOAD_FACTOR,
                      fault_at_us: float = DEFAULT_FAULT_AT_US,
                      jobs: int = 1, cache=None) -> Dict:
    """Run the fault-resilience grid; returns JSON-ready figure data.

    Phase 1 calibrates closed-loop capacity per series (cells shared
    with fig-overload, so they cache across figures); phase 2 runs the
    figure's canonical fault — worker 0 dies ``fault_at_us`` into the
    measurement window — with the watchdog off and on.
    """
    plan = FaultPlan([WorkerCrash(start_us=fault_at_us, worker=0)])
    capacity = measure_capacity(series, clients, seed, workers, jobs, cache)
    specs, index = [], []
    for name in series:
        for watchdog in (False, True):
            specs.append(faults_spec(
                name, clients=clients,
                offered_cps=load_factor * capacity[name],
                plan=plan, watchdog=watchdog, seed=seed, workers=workers))
            index.append((name, watchdog))
    outcomes = run_cells(specs, jobs=jobs, cache=cache)

    grid: Dict[str, Dict[str, Dict]] = {name: {} for name in series}
    for (name, watchdog), outcome in zip(index, outcomes):
        key = "watchdog-on" if watchdog else "watchdog-off"
        grid[name][key] = _cell_summary(outcome.result, fault_at_us)
    return {
        "t1_us": OVERLOAD_T1_US,
        "clients": clients,
        "seed": seed,
        "load_factor": load_factor,
        "fault_at_us": fault_at_us,
        "settle_us": SETTLE_US,
        "plan": plan.to_dict(),
        "capacity_cps": capacity,
        "grid": grid,
    }


def render_faults_figure(data: Dict) -> str:
    """Text rendering of :func:`run_faults_figure` output."""
    lines = []
    kinds = [event["kind"] for event in data["plan"]["events"]]
    lines.append(f"fault plan: {', '.join(kinds)} at "
                 f"+{data['fault_at_us'] / 1e3:.0f}ms into the window "
                 f"(settle {data['settle_us'] / 1e3:.0f}ms)")
    lines.append("")
    for name, cells in data["grid"].items():
        lines.append(f"== {name}  (offered "
                     f"{data['load_factor']:.0%} of "
                     f"{data['capacity_cps'][name]:.0f} calls/s) ==")
        lines.append(f"{'':>14}{'pre':>10}{'during':>10}{'post':>10}"
                     f"{'recovery':>10}{'restarts':>10}{'deadlocks':>10}")
        for key in ("watchdog-off", "watchdog-on"):
            cell = cells.get(key)
            if cell is None:
                continue
            lines.append(
                f"{key:>14}"
                f"{cell['pre_goodput_cps']:>10.0f}"
                f"{cell['during_goodput_cps']:>10.0f}"
                f"{cell['post_goodput_cps']:>10.0f}"
                f"{cell['recovery_ratio']:>10.2f}"
                f"{len(cell['restarts']):>10}"
                f"{len(cell['deadlocks']):>10}")
        lines.append("")
    return "\n".join(lines)
