"""Command-line entry point: run experimental cells and figures.

Examples::

    python -m repro --series udp --clients 100
    python -m repro --series tcp-50 --clients 500 --fd-cache --idle pq
    python -m repro --series tcp-persistent --nice 0 --profile
    python -m repro --series tcp-50 --clients 100 500 1000 --jobs 4
    python -m repro --series tcp-50 --trace trace.json
    python -m repro --series tcp-50 --metrics cell.jsonl --sample-us 5000
    python -m repro fig-overload
    python -m repro fig-overload --overload-series udp \\
        --controllers none local-occupancy --load-factors 0.5 2.0 \\
        --clients 16 --json overload.json
    python -m repro fig-overload --smoke --json overload.json
    python -m repro fig-faults
    python -m repro fig-faults --smoke --json faults.json
    python -m repro fig-attr --transport tcp --fixes none fdcache
    python -m repro fig-attr --smoke --json attr.json
    python -m repro fig-attr --call-id call-7-uac42 --journey-trace j.json

Cells are deterministic, so results are cached on disk
(``benchmarks/results/.cache/``; see ``--no-cache``/``--clear-cache``).
Passing several ``--clients`` values runs one cell per value, fanned
across ``--jobs`` worker processes.

``fig-overload`` runs the overload figure: open-loop Poisson load from
0.5×–3× measured capacity, with and without overload control, printing
goodput and 503-rate per cell (``--json`` also writes the full grid;
``--smoke`` runs the small UDP grid CI checks).

``fig-faults`` runs the fault-resilience figure: a worker crash is
injected mid-measurement and goodput is compared before/during/after
the fault with the supervisor watchdog off and on (``--smoke`` runs the
small CI configuration).

``fig-attr`` runs the causal latency-attribution figure: every message
is trace-id tagged and each transaction's critical path is decomposed
into network / socket-queue / run-queue / lock / IPC / CPU time, per
fix (the paper's Table 3 IPC claim, measured on the latency path).
Causal cells run serially and bypass the cache; ``--call-id`` prints a
per-segment waterfall and ``--journey-trace`` writes the segments as
Perfetto-viewable Chrome trace JSON.

``--trace FILE`` records the full message lifecycle (parse, transaction
match, fd-passing IPC, sends) plus kernel events into a Chrome
trace-event JSON viewable at https://ui.perfetto.dev; traced runs
execute serially and bypass the result cache.  ``--metrics FILE`` writes
the sampled time series (run-queue depth, fd-cache hit rate, CPU shares,
...) as JSONL, one line per sample.
"""

import argparse
import sys

from repro.analysis.cache import ResultCache, default_cache_dir
from repro.analysis.experiments import SERIES_DEF, ExperimentSpec
from repro.analysis.runner import CellOutcome, default_jobs, run_cells
from repro.overload import VALID_CONTROLLERS
from repro.profiling.report import ProfileReport

#: ``--clients``' default; compared by identity to tell it from the same
#: value given explicitly
_DEFAULT_CLIENTS = [100]

#: ``fig-overload --smoke``: the small UDP grid CI checks for collapse and
#: recovery
OVERLOAD_SMOKE = {"series": ("udp",),
                  "controllers": ("none", "local-occupancy", "window"),
                  "load_factors": (0.5, 2.0), "clients": 16, "workers": 4}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run one cell of the ISPASS 2008 SIP-proxy study.")
    parser.add_argument("command", nargs="?", default="cell",
                        choices=("cell", "fig-overload", "fig-faults",
                                 "fig-attr"),
                        help="what to run: a single cell (default), the "
                             "overload figure, the fault-resilience "
                             "figure, or the latency-attribution figure")
    parser.add_argument("--series", default="udp",
                        choices=sorted(SERIES_DEF),
                        help="workload series (transport + connection reuse)")
    parser.add_argument("--clients", type=int, default=_DEFAULT_CLIENTS,
                        nargs="+",
                        help="concurrent caller/callee pairs (several values "
                             "run one cell each)")
    parser.add_argument("--fd-cache", action="store_true",
                        help="enable the Fig. 4 descriptor cache")
    parser.add_argument("--idle", default="scan", choices=("scan", "pq"),
                        help="idle-connection strategy (Fig. 5: pq)")
    parser.add_argument("--nice", type=int, default=-20,
                        help="TCP supervisor nice level (§4.3)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: paper's 24/32)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--measure-us", type=float, default=None,
                        help="measurement window, µs of simulated time")
    parser.add_argument("--profile", action="store_true",
                        help="print the simulated OProfile top functions")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="write a Chrome trace-event JSON of the run "
                             "(open in Perfetto); runs serially, uncached")
    parser.add_argument("--metrics", metavar="FILE", default=None,
                        help="write sampled metric time series as JSONL "
                             "(implies --sample-us default)")
    parser.add_argument("--sample-us", type=float, default=None,
                        metavar="US",
                        help="metric sampling interval in simulated µs "
                             "(default 10000 when sampling is on)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for multi-cell runs "
                             "(default: all cores; 1 = serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the on-disk result cache")
    parser.add_argument("--clear-cache", action="store_true",
                        help="delete every cached result, then run")
    overload = parser.add_argument_group("fig-overload options")
    overload.add_argument("--overload-series", nargs="+", metavar="SERIES",
                          default=None, choices=sorted(SERIES_DEF),
                          help="series to sweep (default: udp tcp-persistent)")
    overload.add_argument("--controllers", nargs="+", metavar="NAME",
                          default=None, choices=VALID_CONTROLLERS,
                          help="overload controllers to compare "
                               "(default: none local-occupancy)")
    overload.add_argument("--load-factors", nargs="+", type=float,
                          metavar="X", default=None,
                          help="offered load as multiples of measured "
                               "capacity (default: 0.5 1 1.5 2 3)")
    overload.add_argument("--json", metavar="FILE", default=None,
                          help="also write the figure data as JSON")
    faults = parser.add_argument_group("fig-faults options")
    faults.add_argument("--fault-series", nargs="+", metavar="SERIES",
                        default=None, choices=sorted(SERIES_DEF),
                        help="series to inject faults into "
                             "(default: tcp-persistent)")
    faults.add_argument("--load-factor", type=float, default=None,
                        metavar="X",
                        help="offered load as a fraction of measured "
                             "capacity (default: 0.7)")
    faults.add_argument("--fault-at-us", type=float, default=None,
                        metavar="US",
                        help="fault offset into the measurement window "
                             "(default: 300000)")
    faults.add_argument("--smoke", action="store_true",
                        help="small, fast figure configuration for CI "
                             "smoke runs (fig-overload: udp, three "
                             "controllers, load 0.5 and 2, 16 clients, 4 "
                             "workers; fig-faults: 16 clients; fig-attr: "
                             "short windows, 24 clients); flags given "
                             "explicitly, --clients included, win")
    attr = parser.add_argument_group("fig-attr options")
    attr.add_argument("--transport", default="tcp", choices=("tcp", "udp"),
                      help="transport to attribute (tcp uses the churn "
                           "series tcp-50, where fd-passing IPC shows up)")
    attr.add_argument("--fixes", nargs="+", metavar="FIX", default=None,
                      help="fixes to compare, space- or comma-separated "
                           "from {none, fdcache} (default: both)")
    attr.add_argument("--call-id", metavar="ID", default=None,
                      help="print a per-segment waterfall for journeys "
                           "whose trace id contains ID")
    attr.add_argument("--journey-trace", metavar="FILE", default=None,
                      help="write each cell's causal segments as Chrome "
                           "trace JSON (per-fix suffix when comparing)")
    return parser


def _print_cell(spec: ExperimentSpec, result, cached: bool,
                profile: bool) -> None:
    cache_note = " [cached]" if cached else ""
    print(f"series:       {spec.series} "
          f"({spec.transport()}, ops/conn={spec.ops_per_conn()}){cache_note}")
    print(f"clients:      {spec.clients}")
    print(f"throughput:   {result.throughput_ops_s:,.0f} transactions/s "
          f"({result.ops} ops in {result.duration_us / 1e6:.2f}s)")
    print(f"cpu:          {result.cpu_utilization * 100:.0f}% of 4 cores")
    print(f"calls:        {result.calls_completed} completed, "
          f"{result.calls_failed} failed")
    if result.offered_cps:
        print(f"goodput:      {result.goodput_cps:,.0f} calls/s of "
              f"{result.offered_cps:,.0f} offered "
              f"({result.rejections_503} shed with 503, "
              f"{result.client_retransmissions} client retransmissions)")
    for title, latency in (("setup lat:", result.setup_latency_us),
                           ("proc lat:", result.processing_latency_us)):
        if latency:
            keys = ("p50", "p95", "p99", "p99.9", "mean")
            summary = "  ".join(f"{key}={latency[key]:,.0f}µs"
                                for key in keys if key in latency)
            print(f"{title:<13} {summary}")
    interesting = {name: value for name, value in result.proxy_stats.items()
                   if value and name in (
                       "fd_requests", "fd_cache_hits", "retransmissions_sent",
                       "retransmissions_absorbed", "accepts",
                       "conns_closed_idle", "accept_failures")}
    if interesting:
        print(f"server:       {interesting}")
    if result.metrics.get("samples"):
        from repro.obs import TimelineReport
        print()
        print(TimelineReport(result.metrics,
                             f"{spec.series}/{spec.clients} timeline")
              .render())
    if profile:
        print()
        print(ProfileReport(result.profile, f"{spec.series} profile")
              .render(12))


def _trace_path(base: str, spec: ExperimentSpec, multiple: bool) -> str:
    """Per-cell output file: suffix the client count for multi-cell runs."""
    if not multiple:
        return base
    stem, dot, ext = base.rpartition(".")
    if not dot:
        return f"{base}-{spec.clients}"
    return f"{stem}-{spec.clients}.{ext}"


def _run_traced(specs, trace_file: str):
    """Serial, uncached execution path for traced cells (the live tracer
    cannot cross the runner's process/cache boundary)."""
    from repro.analysis.experiments import run_cell
    from repro.obs import write_chrome_trace

    outcomes = []
    for spec in specs:
        result = run_cell(spec)
        path = _trace_path(trace_file, spec, multiple=len(specs) > 1)
        count = write_chrome_trace(
            path, result.tracer,
            extra={"series": spec.series, "clients": spec.clients,
                   "seed": spec.seed})
        dropped = result.tracer.dropped
        drop_note = f" ({dropped} dropped)" if dropped else ""
        print(f"trace:        {path} ({count} events{drop_note})")
        outcomes.append(CellOutcome(spec, result, elapsed_s=0.0,
                                    cached=False))
    return outcomes


def figure_clients(args, smoke_clients: int) -> int:
    """The client count a figure runs: ``--clients`` when given,
    otherwise ``smoke_clients`` under ``--smoke``, else the default."""
    if args.smoke and args.clients is _DEFAULT_CLIENTS:
        return smoke_clients
    return args.clients[0]


def overload_grid(args) -> dict:
    """The grid ``run_overload_figure`` runs for ``args``: the figure's
    defaults, or with ``--smoke`` :data:`OVERLOAD_SMOKE`; flags given
    explicitly win either way."""
    from repro.analysis.overload import (
        DEFAULT_CONTROLLERS,
        DEFAULT_LOAD_FACTORS,
        DEFAULT_SERIES,
    )

    grid = dict(OVERLOAD_SMOKE) if args.smoke else {
        "series": DEFAULT_SERIES, "controllers": DEFAULT_CONTROLLERS,
        "load_factors": DEFAULT_LOAD_FACTORS, "workers": None}
    explicit = {"series": args.overload_series,
                "controllers": args.controllers,
                "load_factors": args.load_factors,
                "workers": args.workers}
    grid.update((key, tuple(value) if isinstance(value, list) else value)
                for key, value in explicit.items() if value is not None)
    grid["clients"] = figure_clients(args, OVERLOAD_SMOKE["clients"])
    return grid


def _run_fig_overload(args, cache) -> int:
    import json

    from repro.analysis.overload import (
        render_overload_figure,
        run_overload_figure,
    )

    grid = overload_grid(args)
    jobs = args.jobs if args.jobs is not None else default_jobs()
    data = run_overload_figure(
        series=grid["series"],
        controllers=grid["controllers"],
        load_factors=grid["load_factors"],
        clients=grid["clients"],
        seed=args.seed,
        workers=grid["workers"],
        sample_us=args.sample_us,
        jobs=jobs,
        cache=cache,
    )
    print(render_overload_figure(data))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
        print(f"json:         {args.json}")
    return 0


def _run_fig_faults(args, cache) -> int:
    import json

    from repro.analysis.faults import (
        DEFAULT_FAULT_AT_US,
        DEFAULT_LOAD_FACTOR,
        DEFAULT_SERIES,
        render_faults_figure,
        run_faults_figure,
    )

    jobs = args.jobs if args.jobs is not None else default_jobs()
    data = run_faults_figure(
        series=tuple(args.fault_series or DEFAULT_SERIES),
        clients=figure_clients(args, 16),
        seed=args.seed,
        workers=args.workers,
        load_factor=(args.load_factor if args.load_factor is not None
                     else DEFAULT_LOAD_FACTOR),
        fault_at_us=(args.fault_at_us if args.fault_at_us is not None
                     else DEFAULT_FAULT_AT_US),
        jobs=jobs,
        cache=cache,
    )
    print(render_faults_figure(data))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
        print(f"json:         {args.json}")
    return 0


def _run_fig_attr(args) -> int:
    import json

    from repro.analysis.attribution import render_attr_figure, run_attr_figure
    from repro.obs import render_waterfall, write_journey_trace

    fixes = tuple(fix for arg in (args.fixes or ["none,fdcache"])
                  for fix in arg.split(",") if fix)

    def on_cell(fix, result):
        # Live-result hooks: the causal segment buffer never makes it
        # into the JSON payload, so waterfalls and trace exports happen
        # here, while the cell is still in memory.
        if args.call_id:
            print(f"-- waterfall: fix={fix}, call-id ~ {args.call_id} --")
            print(render_waterfall(result.causal, args.call_id))
            print(flush=True)
        if args.journey_trace:
            path = args.journey_trace
            if len(fixes) > 1:
                stem, dot, ext = path.rpartition(".")
                path = f"{stem}-{fix}.{ext}" if dot else f"{path}-{fix}"
            count = write_journey_trace(
                path, result.causal,
                extra={"transport": args.transport, "fix": fix,
                       "seed": args.seed})
            print(f"journey trace: {path} ({count} events)", flush=True)

    data = run_attr_figure(
        transport=args.transport,
        fixes=fixes,
        clients=figure_clients(args, 24),
        workers=args.workers,
        seed=args.seed,
        smoke=args.smoke,
        progress=lambda message: print(message, flush=True),
        on_cell=on_cell,
    )
    print(render_attr_figure(data))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
        print(f"json:         {args.json}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cache = None if args.no_cache else ResultCache()
    if args.clear_cache:
        removed = ResultCache().clear()
        print(f"cache:        cleared {removed} cached cells "
              f"({default_cache_dir()})")
    if args.command == "fig-overload":
        return _run_fig_overload(args, cache)
    if args.command == "fig-faults":
        return _run_fig_faults(args, cache)
    if args.command == "fig-attr":
        return _run_fig_attr(args)  # causal cells are serial, uncached
    sample_us = args.sample_us
    if sample_us is None and args.metrics:
        from repro.obs.metrics import DEFAULT_INTERVAL_US
        sample_us = DEFAULT_INTERVAL_US
    specs = [ExperimentSpec(
        series=args.series,
        clients=clients,
        fd_cache=args.fd_cache,
        idle_strategy=args.idle,
        supervisor_nice=args.nice,
        workers=args.workers,
        seed=args.seed,
        measure_us=args.measure_us,
        profile=args.profile,
        sample_us=sample_us,
        trace=args.trace is not None,
    ) for clients in args.clients]
    if any(spec.live_only for spec in specs):
        outcomes = _run_traced(specs, args.trace)
    else:
        jobs = args.jobs if args.jobs is not None else default_jobs()
        outcomes = run_cells(specs, jobs=jobs, cache=cache)
    if args.metrics:
        from repro.obs import write_metrics_jsonl
        lines = write_metrics_jsonl(
            args.metrics,
            [(f"{o.spec.series}/{o.spec.clients}", o.result.metrics)
             for o in outcomes])
        print(f"metrics:      {args.metrics} ({lines} lines)")
    for index, outcome in enumerate(outcomes):
        if index:
            print()
        _print_cell(outcome.spec, outcome.result, outcome.cached,
                    args.profile)
    return 0


if __name__ == "__main__":
    sys.exit(main())
