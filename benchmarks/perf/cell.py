"""One benchmark cell in a fresh process (the harness's child).

``run.py`` starts this script once per measurement so that every run
pays its own imports, allocator state and garbage, and nothing is shared
between repeats.  It runs one workload's ``run_cell`` — under ``cProfile``
in mode ``traced`` — and prints one JSON record on the last line of
stdout: host times, the simulated result, the exact simulated counters of
every layer, and (when traced) self time and call counts per package.
Mode ``setup`` stops once the spec is built and reports only ``setup_s``.

Everything here observes the program from outside: it reads public
attributes of the returned result, testbed and proxy and touches nothing
under ``src/``.
"""

import time

_T0 = time.perf_counter()  # setup_s starts at the first statement

import cProfile  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from workloads import WORKLOADS, spec_kwargs  # noqa: E402

#: the layers: packages under src/repro/ (top-level modules such as
#: testbed.py count as ``analysis``, the layer that assembles cells)
PACKAGES = ("sim", "kernel", "net", "sip", "proxy", "clients", "obs",
            "overload", "faults", "profiling", "analysis")

#: cumulative phase times read from the profile:
#: metric -> ((path suffix, function name), ...)
PHASES = {
    "analysis.build_s": (("repro/testbed.py", "__init__"),
                         ("repro/proxy/server.py", "build_proxy")),
    "clients.register_s": (("repro/clients/manager.py",
                            "_registration_phase"),),
    "obs.journeys_s": (("repro/obs/journey.py", "build_journeys"),
                       ("repro/obs/attribution.py", "aggregate_journeys")),
}


def _package_of(filename: str, root: str):
    """The layer a source file belongs to, or None outside ``root``
    (the directory of the imported ``repro`` package)."""
    if not filename.startswith(root):
        return None
    first = filename[len(root):].split(os.sep)[0]
    return first if first in PACKAGES else "analysis"


def aggregate_profile(profile: cProfile.Profile, root: str) -> dict:
    """Self seconds and call counts per package, plus phase times.

    Time and calls of functions outside ``repro`` (C builtins, stdlib)
    are folded into the package of their caller through the pstats
    caller edges, so ``heapq`` lands in ``sim`` and ``str``/``re`` in
    ``sip``.  A non-``repro`` caller is resolved through *its* callers
    in turn, split by call count so that the split — and with it every
    ``<pkg>.calls`` — repeats exactly; what cannot be resolved (the
    profiler's own frames) is dropped from the totals.
    """
    # func -> (cc, nc, tt, ct, {caller: (nc, cc, tt, ct)})
    stats = pstats.Stats(profile).stats
    packages = {func: _package_of(func[0], root) for func in stats}
    owner_cache = {}

    def owners(func, seen=()):
        """{package: share} describing who a non-repro function works for."""
        package = packages.get(func)
        if package is not None:
            return {package: 1.0}
        if func in owner_cache:
            return owner_cache[func]
        if func in seen:
            return {}
        callers = stats.get(func, (0, 0, 0.0, 0.0, {}))[4]
        total_calls = sum(edge[0] for edge in callers.values())
        dist = {}
        for caller, edge in callers.items():
            share = edge[0] / total_calls
            for package, part in owners(caller, seen + (func,)).items():
                dist[package] = dist.get(package, 0.0) + share * part
        owner_cache[func] = dist
        return dist

    self_s = dict.fromkeys(PACKAGES, 0.0)
    calls = dict.fromkeys(PACKAGES, 0.0)
    for func, (__, ncalls, tottime, __, callers) in stats.items():
        package = packages[func]
        if package is not None:
            self_s[package] += tottime
            calls[package] += ncalls
            continue
        for caller, (edge_calls, __, edge_self, __) in callers.items():
            for package, share in owners(caller).items():
                self_s[package] += edge_self * share
                calls[package] += edge_calls * share
    phases = {}
    for metric, functions in PHASES.items():
        phases[metric] = sum(
            entry[3] for func, entry in stats.items()
            if any(func[0].replace(os.sep, "/").endswith(path)
                   and func[2] == name for path, name in functions))
    return {"self_s": self_s,
            "calls": {pkg: round(n) for pkg, n in calls.items()},
            "phases": phases}


def counters(result) -> dict:
    """Exact simulated counters, one namespace per layer (whole run)."""
    engine = result.testbed.engine
    fabric = result.testbed.fabric
    totals = result.proxy_totals
    lookups = totals.get("fd_cache_hits", 0) + totals.get("fd_cache_misses", 0)
    out = {
        "sim.events_fired": engine.events_fired,
        "sim.events_scheduled": engine.events_scheduled,
        "sim.fired_per_scheduled":
            engine.events_fired / engine.events_scheduled,
        "kernel.cpu_utilization": result.cpu_utilization,
        "net.packets_sent": fabric.packets_sent,
        "net.bytes_sent": fabric.bytes_sent,
        "net.packets_lost": fabric.packets_lost,
        "proxy.fd_cache_hit_ratio":
            totals.get("fd_cache_hits", 0) / lookups if lookups else 0.0,
        "proxy.open_conns": result.open_conns,
        "clients.calls_completed": result.calls_completed,
        "clients.retransmissions": result.client_retransmissions,
        "obs.spans": result.tracer.emitted if result.tracer else 0,
        "obs.spans_dropped": result.tracer.dropped if result.tracer else 0,
        "obs.causal_dropped": result.causal.dropped if result.causal else 0,
        "obs.journeys": len(result.journeys),
        "obs.ipc_share":
            result.attribution.get("shares", {}).get("ipc", 0.0),
    }
    for name in ("messages_received", "messages_sent", "fd_requests",
                 "conns_created", "conns_closed_idle",
                 "idle_scan_entries_examined", "pq_operations",
                 "retransmissions_absorbed"):
        out[f"proxy.{name}"] = totals.get(name, 0)
    return out


def journey_sum_error(result) -> float:
    """Largest |sum(components) − end-to-end latency| over all journeys."""
    return max((abs(sum(j.components.values()) - j.total_us)
                for j in result.journeys), default=0.0)


def main(argv) -> int:
    request = json.loads(argv[1])
    import repro
    from repro.analysis import ExperimentSpec, run_cell
    from repro.analysis.paper_data import PAPER_FIGURES
    spec = ExperimentSpec(**spec_kwargs(
        request["workload"], request["profile"], request["seed"]))
    setup_s = time.perf_counter() - _T0
    if request["mode"] == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    profile = cProfile.Profile() if request["mode"] == "traced" else None
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    if profile is not None:
        result = profile.runcall(run_cell, spec)
    else:
        result = run_cell(spec)
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    # read before the harness allocates anything of its own; KiB on Linux
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    payload = json.dumps(dataclasses.asdict(result), sort_keys=True)
    figure, series, clients = WORKLOADS[request["workload"]]["paper"]
    setup = result.setup_latency_us
    record = {
        # the end-to-end metrics, under their BENCHMARK.json names
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "sim_calls_per_wall_s": result.calls_completed / wall_s,
        "peak_rss_mb": peak_rss_mb,
        "sim_throughput_ops_s": result.throughput_ops_s,
        "sim_setup_p50_us": setup["p50"],
        "sim_setup_p99_us": setup["p99"],
        # what the checks and the per-layer metrics need
        "sim_digest": hashlib.sha256(payload.encode()).hexdigest(),
        "windows_us": list(spec.windows()),
        "paper_ops_s": PAPER_FIGURES[figure][series][clients],
        "calls_completed": result.calls_completed,
        "calls_failed": result.calls_failed,
        "registration_failures": result.registration_failures,
        "counters": counters(result),
        "journey_sum_error_us": journey_sum_error(result),
    }
    if profile is not None:
        record["profile"] = aggregate_profile(
            profile, os.path.dirname(repro.__file__) + os.sep)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
