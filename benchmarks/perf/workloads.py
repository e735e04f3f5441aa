"""The four benchmark workloads and their window profiles.

Every workload is closed-loop, as in the paper's §4.2 manager: each
caller starts its next call only when the previous one completed, so the
client count (not a rate) states the load.

Each workload carries three *window profiles* — sets of
``ExperimentSpec`` overrides that only change how long the cell runs:

``bench``  the default.  Sized so one cell takes ≈5 s of host time (the
           churn cell ≈12 s) and a 24 s run holds several fresh-process
           repeats; this is what ``BENCHMARK.json`` and ``baseline.json``
           record.
``full``   the windows of the cells in ``BENCH_7.json`` (≈20–33 s per
           cell); used to cross-check the simulated numbers against the
           fidelity grid (``--full``).
``smoke``  10 + 40 ms windows for the harness self-test (``--smoke``).

The churn workload's warmup is never shortened below the simulator's own
rule (2.1 × idle timeout, so abandoned connections are being reaped when
measurement starts); the ``bench`` profile compresses the idle timeout
instead and ``ExperimentSpec.ops_per_conn`` compresses the reuse count
with it, exactly as ``experiments.py`` does for its own 5× compression.
350 ms is the floor for that timeout: phones register over a 200 ms
stagger and the manager starts the calls at the next 100 ms tick, so a
connection can sit idle for 300 ms before its first call; with a shorter
timeout the proxy reaps it and the first call fails (seen at 150 ms on
every seed, at 250 ms on the seeds whose last phone registers after
199.9 ms).  Only ``smoke`` sets an explicit short warmup: it tests the
harness's plumbing and reaps nothing.
"""

WORKLOADS = {
    "udp-closed-100": {
        "why": ("100 closed-loop callers over UDP (60+140 ms windows): "
                "shortest per-message path, no connections/IPC/idle "
                "management; the bypass workload for net.tcp, kernel.ipc, "
                "proxy.idle_* and obs"),
        "spec": dict(series="udp", clients=100),
        "bench": dict(warmup_us=60_000.0, measure_us=140_000.0),
        "full": dict(),  # default 250 + 500 ms
        "smoke": dict(warmup_us=10_000.0, measure_us=40_000.0),
        "paper": ("fig3", "udp", 100),
        "bench7": ("udp", "none", "100"),
    },
    "tcp-churn-100": {
        "why": ("100 closed-loop callers, tcp-50 reconnect churn, no fd "
                "cache, scan idle sweep, 350 ms idle timeout (735+80 ms "
                "windows): connect/accept/abandon, fd-passing IPC, "
                "scan under lock, fd/port churn (Fig. 3)"),
        "spec": dict(series="tcp-50", clients=100, fd_cache=False,
                     idle_strategy="scan"),
        # warmup_us=None picks the simulator's 2.1 x idle timeout
        "bench": dict(idle_timeout_us=350_000.0, measure_us=80_000.0),
        "full": dict(idle_timeout_us=1_000_000.0, measure_us=400_000.0),
        "smoke": dict(idle_timeout_us=350_000.0, warmup_us=10_000.0,
                      measure_us=40_000.0),
        "paper": ("fig3", "tcp-50", 100),
        "bench7": None,
    },
    "tcp-persist-1000-fixed": {
        "why": ("1000 closed-loop callers on persistent TCP with fd cache "
                "and PQ idle sweep (100+100 ms windows): 2000 phones, "
                "1000+ long-lived flows, cache hits instead of IPC: the "
                "steady-state data path (Fig. 5)"),
        "spec": dict(series="tcp-persistent", clients=1000, fd_cache=True,
                     idle_strategy="pq"),
        "bench": dict(warmup_us=100_000.0, measure_us=100_000.0),
        "full": dict(warmup_us=400_000.0, measure_us=400_000.0),
        "smoke": dict(clients=200, warmup_us=10_000.0, measure_us=40_000.0),
        "paper": ("fig5", "tcp-persistent", 1000),
        "bench7": None,
    },
    "tcp-persist-100-observed": {
        "why": ("100 closed-loop callers on persistent TCP, no fd cache, "
                "every observer on (profiler, spans, causal, 10 ms "
                "sampler, journeys; 80+120 ms windows): the only workload "
                "where obs does real work"),
        "spec": dict(series="tcp-persistent", clients=100, profile=True,
                     trace=True, causal=True, sample_us=10_000.0),
        "bench": dict(warmup_us=80_000.0, measure_us=120_000.0),
        "full": dict(),  # default 600 + 600 ms
        "smoke": dict(warmup_us=10_000.0, measure_us=40_000.0),
        "paper": ("fig3", "tcp-persistent", 100),
        "bench7": ("tcp-persistent", "none", "100"),
    },
}


def spec_kwargs(name: str, profile: str, seed: int) -> dict:
    """``ExperimentSpec`` keyword arguments for one workload run.

    ``scale_windows=False`` keeps ``REPRO_SCALE`` (which the harness also
    removes from the child's environment) from touching the windows.
    """
    workload = WORKLOADS[name]
    return dict(workload["spec"], **workload[profile], seed=seed,
                scale_windows=False)
