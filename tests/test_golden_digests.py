"""Golden digests of one small cell per server flavor.

The digests pin every simulated number of all four server flavors —
two of which (threaded TCP, SCTP) no ``BENCH_*``/``BENCHMARK.json`` cell
covers — so a refactor of ``repro.proxy`` that is meant to be
behaviour-preserving can prove it in seconds.  The two process-TCP cells
fail three calls each at this size because the 60 ms idle timeout reaps
live connections; that is deliberate, it drives the drop and two-phase
teardown paths.  A PR that *means* to move a simulated number updates
the values below on purpose and says so.

The *observed* digests run the same six cells with every observer on
(profiler, spans, causal segments, 5 ms sampler) and additionally hash
what the sinks recorded, so a change to the instrumentation seam — who
calls which hook, when, with what — is pinned on every flavor, not only
on the ``tcp-persistent`` cell ``BENCHMARK.json`` observes.

The *overload* digests run four sampled open-loop cells far past
capacity, one per (transport, controller) pair, so both control laws —
their admission decisions, their per-tick signal arithmetic and the
gauges the sampler reads from them — are pinned inside a live cell.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.analysis.experiments import ExperimentSpec, run_cell
from repro.analysis.overload import overload_spec

GOLDEN = {
    "udp": "1325ffacd1fa05fa",
    "sctp": "2df29b440c22cffe",
    "tcp-50": "5fceaa71a06e00ce",
    "tcp-persistent": "d19ea074430bccba",
    "tcp-threaded": "60837863cb7e8789",
    "tcp-threaded-50": "03065af9ca6268b0",
}

GOLDEN_OBSERVED = {
    "udp": "7eb720ee03ca5b65",
    "sctp": "ad8b59abd7b95524",
    "tcp-50": "41044a724b7fc88f",
    "tcp-persistent": "cb8eacbba8e7747b",
    "tcp-threaded": "75153de51dbe6dce",
    "tcp-threaded-50": "835b6c1cfa79e2e7",
}

#: (series, offered calls/s, controller) -> digest of the sampled result
GOLDEN_OVERLOAD = {
    ("udp", 20_000.0, "local-occupancy"): "ebde3ee15e72277a",
    ("udp", 20_000.0, "window"): "4f6b629d035c82b8",
    ("tcp-persistent", 8_000.0, "local-occupancy"): "f33245a74f55a6c3",
    ("tcp-persistent", 8_000.0, "window"): "2db076e06fde8479",
}


def _small_cell(series, **observers):
    return run_cell(ExperimentSpec(
        series=series, clients=8, workers=4, seed=1, warmup_us=30_000.0,
        measure_us=100_000.0, idle_timeout_us=60_000.0,
        scale_windows=False, **observers))


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(
        payload, sort_keys=True).encode()).hexdigest()[:16]


@pytest.mark.parametrize("series", sorted(GOLDEN))
def test_small_cell_digest_is_unchanged(series):
    assert _digest(dataclasses.asdict(_small_cell(series))) == GOLDEN[series]


@pytest.mark.parametrize("series", sorted(GOLDEN_OBSERVED))
def test_small_cell_observed_digest_is_unchanged(series):
    result = _small_cell(series, profile=True, trace=True, causal=True,
                         sample_us=5_000.0)
    tracer, causal = result.tracer, result.causal
    assert tracer.dropped == 0 and causal.dropped == 0
    digest = _digest({
        "result": dataclasses.asdict(result),
        "spans_emitted": tracer.emitted,
        "segments_emitted": causal.emitted,
        "marks": len(causal.marks),
        "counters": sorted(causal.counters.items()),
        "segments": [(s.kind, s.who, s.start_us, s.end_us)
                     for s in causal.segments],
        "spans": [(s.name, s.who, s.start_us, s.end_us)
                  for s in tracer.events()],
    })
    assert digest == GOLDEN_OBSERVED[series]
    # Observers on = off: with the three observer-only fields blanked the
    # result is the unobserved run's, to the digit.
    unobserved = dataclasses.replace(result, profile={}, metrics={},
                                     attribution={})
    assert _digest(dataclasses.asdict(unobserved)) == GOLDEN[series]


@pytest.mark.parametrize("series,offered_cps,controller",
                         sorted(GOLDEN_OVERLOAD))
def test_overload_cell_digest_is_unchanged(series, offered_cps, controller):
    result = run_cell(overload_spec(
        series, clients=8, offered_cps=offered_cps, controller=controller,
        workers=4, warmup_us=60_000.0, measure_us=150_000.0,
        scale_windows=False, sample_us=10_000.0))
    assert result.rejections_503 > 0
    assert _digest(dataclasses.asdict(result)) == \
        GOLDEN_OVERLOAD[series, offered_cps, controller]
