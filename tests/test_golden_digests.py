"""Golden digests of one small cell per server flavor.

The digests pin every simulated number of all four server flavors —
two of which (threaded TCP, SCTP) no ``BENCH_*``/``BENCHMARK.json`` cell
covers — so a refactor of ``repro.proxy`` that is meant to be
behaviour-preserving can prove it in seconds.  The two process-TCP cells
fail three calls each at this size because the 60 ms idle timeout reaps
live connections; that is deliberate, it drives the drop and two-phase
teardown paths.  A PR that *means* to move a simulated number updates
the values below on purpose and says so.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.analysis.experiments import ExperimentSpec, run_cell

GOLDEN = {
    "udp": "1325ffacd1fa05fa",
    "sctp": "2df29b440c22cffe",
    "tcp-50": "5fceaa71a06e00ce",
    "tcp-persistent": "d19ea074430bccba",
    "tcp-threaded": "60837863cb7e8789",
    "tcp-threaded-50": "03065af9ca6268b0",
}


@pytest.mark.parametrize("series", sorted(GOLDEN))
def test_small_cell_digest_is_unchanged(series):
    result = run_cell(ExperimentSpec(
        series=series, clients=8, workers=4, seed=1, warmup_us=30_000.0,
        measure_us=100_000.0, idle_timeout_us=60_000.0,
        scale_windows=False))
    digest = hashlib.sha256(json.dumps(
        dataclasses.asdict(result), sort_keys=True).encode()).hexdigest()[:16]
    assert digest == GOLDEN[series]
