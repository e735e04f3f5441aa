"""Regression tests for the parallel experiment runner and result cache.

The contract the rest of the project builds on:

- serial (``jobs=1``) and parallel (``jobs=4``) execution of the same
  spec grid produce byte-identical results;
- a cache hit returns the identical result without re-execution;
- duplicate specs in one batch are computed once;
- cache keys capture everything result-affecting (spec fields,
  ``REPRO_SCALE`` and the simulator's source) and nothing else.
"""

import dataclasses
import json

import pytest

from repro.analysis import (ExperimentSpec, ResultCache, default_jobs,
                            run_cells, spec_key)
from repro.analysis import cache as cache_module
from repro.analysis.cache import source_digest, spec_payload
from repro.clients.workload import BenchmarkResult


def tiny_grid():
    """A small multi-cell grid (UDP cells keep this suite fast)."""
    return [ExperimentSpec(series="udp", clients=count, workers=2,
                           warmup_us=10_000.0, measure_us=30_000.0, seed=1)
            for count in (2, 3, 4, 5)]


def canonical(outcomes):
    return [json.dumps(dataclasses.asdict(outcome.result), sort_keys=True)
            for outcome in outcomes]


class TestRunner:
    def test_parallel_matches_serial_byte_identical(self, tmp_path):
        serial = run_cells(tiny_grid(), jobs=1,
                           cache=ResultCache(tmp_path / "serial"))
        parallel = run_cells(tiny_grid(), jobs=4,
                             cache=ResultCache(tmp_path / "parallel"))
        assert canonical(serial) == canonical(parallel)
        assert not any(outcome.cached for outcome in serial)
        assert not any(outcome.cached for outcome in parallel)

    def test_results_in_input_order(self, tmp_path):
        specs = tiny_grid()
        outcomes = run_cells(specs, jobs=4, cache=ResultCache(tmp_path))
        assert [outcome.spec.clients for outcome in outcomes] == \
            [spec.clients for spec in specs]

    def test_runs_without_a_cache(self):
        outcomes = run_cells(tiny_grid()[:1], jobs=1, cache=None)
        assert outcomes[0].result.ops > 0
        assert not outcomes[0].cached

    def test_duplicate_specs_computed_once(self, tmp_path):
        spec = tiny_grid()[0]
        outcomes = run_cells([spec, spec, spec], jobs=1,
                             cache=ResultCache(tmp_path))
        assert len(ResultCache(tmp_path)) == 1
        first, *rest = canonical(outcomes)
        assert all(other == first for other in rest)

    def test_elapsed_recorded_for_computed_cells(self, tmp_path):
        outcomes = run_cells(tiny_grid()[:1], jobs=1,
                             cache=ResultCache(tmp_path))
        assert outcomes[0].elapsed_s > 0


class TestJobs:
    def test_repro_jobs_sets_the_worker_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3

    @pytest.mark.parametrize("value", ["many", "0"])
    def test_bad_repro_jobs_rejected(self, value, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", value)
        with pytest.raises(ValueError, match=f"REPRO_JOBS='{value}'"):
            default_jobs()


class TestCacheHits:
    def test_cache_hit_skips_reexecution(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = run_cells(tiny_grid(), jobs=1, cache=cache)
        again = run_cells(tiny_grid(), jobs=1, cache=cache)
        assert all(outcome.cached for outcome in again)
        # elapsed==0 is the per-cell-timing proof nothing re-ran.
        assert all(outcome.elapsed_s == 0.0 for outcome in again)
        assert canonical(first) == canonical(again)

    def test_parallel_run_reuses_serial_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = run_cells(tiny_grid(), jobs=1, cache=cache)
        again = run_cells(tiny_grid(), jobs=4, cache=cache)
        assert all(outcome.cached for outcome in again)
        assert canonical(first) == canonical(again)

    def test_clear_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_cells(tiny_grid()[:2], jobs=1, cache=cache)
        assert cache.clear() == 2
        outcomes = run_cells(tiny_grid()[:2], jobs=1, cache=cache)
        assert not any(outcome.cached for outcome in outcomes)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny_grid()[0]
        run_cells([spec], jobs=1, cache=cache)
        key = spec_key(spec)
        cache._path(key).write_text("{not json")
        outcomes = run_cells([spec], jobs=1, cache=cache)
        assert not outcomes[0].cached


class TestSpecKeys:
    def test_key_is_stable(self):
        spec = ExperimentSpec(series="tcp-50", clients=100)
        assert spec_key(spec) == spec_key(
            ExperimentSpec(series="tcp-50", clients=100))

    def test_key_covers_every_spec_field(self):
        base = spec_key(ExperimentSpec())
        assert spec_key(ExperimentSpec(seed=2)) != base
        assert spec_key(ExperimentSpec(fd_cache=True)) != base
        assert spec_key(ExperimentSpec(fault_plan={"events": []})) != base

    def test_key_covers_repro_scale(self, monkeypatch):
        spec = ExperimentSpec()
        base = spec_key(spec)
        monkeypatch.setenv("REPRO_SCALE", "0.25")
        assert spec_key(spec) != base

    def test_key_moves_when_the_source_digest_moves(self, tmp_path,
                                                   monkeypatch):
        """An entry cached before an edit to a simulator module is a miss
        after it."""
        assert spec_payload(ExperimentSpec())["schema"] == source_digest()
        spec = tiny_grid()[0]
        cache = ResultCache(tmp_path)
        key = spec_key(spec)
        cache.put(key, spec, {"ops": 1})
        assert cache.get(spec_key(spec)) == {"ops": 1}
        monkeypatch.setattr(cache_module, "source_digest", lambda: "edited")
        assert spec_key(spec) != key
        assert cache.get(spec_key(spec)) is None

    def test_source_digest_moves_with_every_module(self, tmp_path,
                                                  monkeypatch):
        """Editing, adding or renaming any ``.py`` file under the package
        moves the digest; other files do not."""
        package = tmp_path / "repro"
        (package / "net").mkdir(parents=True)
        (package / "__init__.py").write_text("")
        monkeypatch.setattr(cache_module, "PACKAGE_DIR", package)
        module = package / "net" / "fabric.py"
        steps = [lambda: module.write_text("LATENCY_US = 50.0\n"),
                 lambda: module.write_text("LATENCY_US = 51.0\n"),
                 lambda: (package / "net" / "tcp.py").write_text(""),
                 lambda: module.rename(package / "fabric.py")]
        digests = []
        try:
            for step in steps:
                step()
                source_digest.cache_clear()
                digests.append(source_digest())
            (package / "notes.txt").write_text("not source")
            source_digest.cache_clear()
            assert source_digest() == digests[-1]
        finally:
            source_digest.cache_clear()
        assert len(set(digests)) == len(steps)

    def test_unserializable_spec_is_uncacheable(self):
        spec = ExperimentSpec(fault_plan={"events": [object()]})
        assert spec_key(spec) is None
        assert ResultCache().get(None) is None  # uncacheable → always miss


class TestSerializableResults:
    def test_runner_results_carry_server_summaries(self, tmp_path):
        spec = ExperimentSpec(series="tcp-persistent", clients=4, workers=4,
                              warmup_us=50_000.0, measure_us=100_000.0)
        cache = ResultCache(tmp_path)
        fresh = run_cells([spec], jobs=1, cache=cache)[0].result
        cached = run_cells([spec], jobs=1, cache=cache)[0].result
        for result in (fresh, cached):
            assert result.proxy_totals["messages_received"] > 0
            assert result.open_conns > 0
        assert fresh.proxy_totals == cached.proxy_totals
