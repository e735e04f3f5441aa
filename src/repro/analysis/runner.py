"""Parallel experiment-cell execution.

Every figure in the paper is a grid of *independent* (series, clients,
fixes) cells, so the experiment layer fans them out across worker
processes instead of running them serially in-process.  The runner is
the single execution path for benchmarks, the CLI and tests:

- deterministic: results come back in input order, and a cell computed
  in a worker process is bit-identical to one computed serially (cells
  are seeded simulations; no wall-clock state leaks into results);
- cached: pass a :class:`~repro.analysis.cache.ResultCache` and
  already-computed cells are served from disk without re-execution;
- deduplicating: identical specs inside one batch run once;
- graceful: ``jobs=1`` (the default) never touches ``multiprocessing``.

Results cross the process boundary (and the disk cache) as plain dicts,
so the live ``proxy``/``testbed``/``tracer`` objects a serial
:func:`~repro.analysis.experiments.run_cell` attaches are *not*
available on runner results — use the serializable
``proxy_totals``/``open_conns`` summaries instead.  Sampled metric
series *do* survive (``result.metrics`` is plain JSON), but span traces
and causal segments do not: specs with ``trace=True`` or ``causal=True``
are rejected here — run them through ``run_cell`` directly (the CLI's
``--trace`` and ``fig-attr`` paths do exactly that).
"""

import dataclasses
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.analysis.cache import ResultCache, spec_key
from repro.analysis.experiments import ExperimentSpec, run_cell
from repro.clients.workload import BenchmarkResult


@dataclass
class CellOutcome:
    """One executed (or cache-served) cell."""

    spec: ExperimentSpec
    result: BenchmarkResult
    #: wall-clock seconds spent computing (0.0 when served from cache)
    elapsed_s: float
    #: True when the result came from the persistent cache
    cached: bool


def default_jobs() -> int:
    """Worker-count default: ``REPRO_JOBS`` env var, else the CPU count."""
    env = os.environ.get("REPRO_JOBS")
    if not env:
        return os.cpu_count() or 1
    try:
        jobs = int(env)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ValueError(f"REPRO_JOBS={env!r}: expected a positive integer "
                         "(1 runs cells serially)")
    return jobs


def _execute(spec: ExperimentSpec) -> tuple:
    """Run one cell; must stay module-level (pickled into workers)."""
    start = time.perf_counter()
    result = run_cell(spec)
    # asdict() keeps only dataclass fields, dropping the live proxy and
    # testbed objects run_cell attaches (they cannot cross processes).
    return dataclasses.asdict(result), time.perf_counter() - start


def _pool(jobs: int):
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # platforms without fork
        ctx = multiprocessing.get_context()
    return ctx.Pool(processes=jobs)


def run_cells(specs: Iterable[ExperimentSpec],
              jobs: Optional[int] = None,
              cache: Optional[ResultCache] = None) -> List[CellOutcome]:
    """Run a batch of cells, fanning cache misses across ``jobs`` workers.

    Returns one :class:`CellOutcome` per input spec, in input order.
    ``jobs=None`` picks :func:`default_jobs`; ``jobs=1`` runs serially
    in-process.
    """
    specs = list(specs)
    for spec in specs:
        if spec.live_only:
            raise ValueError(
                "trace=True/causal=True cells need their live tracer, "
                "which cannot cross the runner's process/cache boundary; "
                "call repro.analysis.experiments.run_cell(spec) directly")
    if jobs is None:
        jobs = default_jobs()
    keys = [spec_key(spec) for spec in specs]
    outcomes: List[Optional[CellOutcome]] = [None] * len(specs)

    # -- serve cache hits ------------------------------------------------
    misses: List[int] = []
    for index, (spec, key) in enumerate(zip(specs, keys)):
        hit = cache.get(key) if cache is not None else None
        if hit is not None:
            outcomes[index] = CellOutcome(spec, BenchmarkResult(**hit),
                                          elapsed_s=0.0, cached=True)
        else:
            misses.append(index)

    # -- dedupe identical specs within the batch -------------------------
    leaders: List[int] = []      # first index computing each unique key
    followers = {}               # miss index -> leader position
    seen = {}                    # key -> leader position
    for index in misses:
        key = keys[index]
        if key is not None and key in seen:
            followers[index] = seen[key]
            continue
        if key is not None:
            seen[key] = len(leaders)
        leaders.append(index)

    # -- compute ---------------------------------------------------------
    computed: List[tuple] = []
    to_run = [specs[i] for i in leaders]
    if to_run:
        if jobs <= 1 or len(to_run) == 1:
            for spec in to_run:
                computed.append(_execute(spec))
        else:
            with _pool(min(jobs, len(to_run))) as pool:
                for item in pool.imap(_execute, to_run, chunksize=1):
                    computed.append(item)

    # -- fan results back out, in input order ----------------------------
    for position, index in enumerate(leaders):
        result_dict, elapsed = computed[position]
        if cache is not None:
            cache.put(keys[index], specs[index], result_dict)
        outcomes[index] = CellOutcome(specs[index],
                                      BenchmarkResult(**result_dict),
                                      elapsed_s=elapsed, cached=False)
    for index, position in followers.items():
        result_dict, elapsed = computed[position]
        outcomes[index] = CellOutcome(specs[index],
                                      BenchmarkResult(**result_dict),
                                      elapsed_s=elapsed, cached=False)
    return outcomes
