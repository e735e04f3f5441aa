"""Tests for the tracing + time-series metrics subsystem (repro.obs)."""

import hashlib
import json
import math

import pytest

from repro.analysis.experiments import ExperimentSpec, run_cell
from repro.analysis.runner import run_cells
from repro.clients.workload import percentiles
from repro.obs import (
    MetricSampler,
    StreamingHistogram,
    TimelineReport,
    Tracer,
    to_chrome_events,
    write_chrome_trace,
    write_metrics_jsonl,
)
from repro.obs.chrome_trace import validate_chrome_trace
from repro.obs.metrics import series_window_mean
from repro.sim.engine import Engine


# ---------------------------------------------------------------------------
# Tracer ring buffer
# ---------------------------------------------------------------------------
class TestTracer:
    def test_span_records_simulated_time(self, engine):
        tracer = Tracer(engine)
        span = tracer.begin("work", cat="proxy", who="w0", conn=7)
        engine.schedule(125.0, lambda: None)
        engine.run()
        tracer.end(span)
        assert span.start_us == 0.0
        assert span.end_us == 125.0
        assert span.duration_us == 125.0
        assert span.attrs["conn"] == 7
        assert list(tracer.events()) == [span]

    def test_ring_buffer_caps_and_evicts_oldest(self, engine):
        tracer = Tracer(engine, capacity=10)
        for index in range(25):
            tracer.instant(f"ev{index}", who="w0")
        assert len(tracer) == 10
        assert tracer.emitted == 25
        assert tracer.dropped == 15
        names = [event.name for event in tracer.events()]
        # Oldest evicted: only the newest 10 survive, in order.
        assert names == [f"ev{i}" for i in range(15, 25)]

    def test_unclosed_span_not_buffered(self, engine):
        tracer = Tracer(engine, capacity=4)
        tracer.begin("open", who="w0")  # never ended
        tracer.instant("tick", who="w0")
        assert [e.name for e in tracer.events()] == ["tick"]

    def test_clear(self, engine):
        tracer = Tracer(engine, capacity=4)
        tracer.instant("a", who="w0")
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.emitted == 0


# ---------------------------------------------------------------------------
# Chrome trace export
# ---------------------------------------------------------------------------
class TestChromeTrace:
    def _tracer(self, engine):
        tracer = Tracer(engine)
        span = tracer.begin("process_msg", cat="proxy",
                            who="server/worker-1", call_id="abc")
        engine.schedule(40.0, lambda: None)
        engine.run()
        tracer.end(span)
        tracer.instant("context_switch", cat="kernel", who="server/worker-2")
        tracer.instant("bare_who", cat="kernel", who="timer")
        return tracer

    def test_event_structure(self, engine):
        events = to_chrome_events(self._tracer(engine).events())
        metadata = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(complete) == 1 and len(instants) == 2
        # pid/tid are interned ints; metadata events carry the names.
        pid_names = {e["pid"]: e["args"]["name"] for e in metadata
                     if e["name"] == "process_name"}
        tid_names = {(e["pid"], e["tid"]): e["args"]["name"]
                     for e in metadata if e["name"] == "thread_name"}
        # who "server/worker-1" splits into pid/tid; bare who -> pid "sim".
        assert pid_names[complete[0]["pid"]] == "server"
        assert tid_names[(complete[0]["pid"],
                          complete[0]["tid"])] == "worker-1"
        assert complete[0]["dur"] == 40.0
        assert complete[0]["args"]["call_id"] == "abc"
        bare = [e for e in instants if e["name"] == "bare_who"][0]
        assert pid_names[bare["pid"]] == "sim"
        assert tid_names[(bare["pid"], bare["tid"])] == "timer"
        assert all(e["s"] == "t" for e in instants)

    def test_written_file_validates(self, engine, tmp_path):
        path = tmp_path / "trace.json"
        count = write_chrome_trace(path, self._tracer(engine),
                                   extra={"series": "test"})
        info = validate_chrome_trace(path)
        assert info["events"] == count == 3
        assert info["complete"] == 1
        assert info["instants"] == 2
        assert "process_msg" in info["names"]
        payload = json.loads(path.read_text())
        assert payload["otherData"]["series"] == "test"
        assert payload["otherData"]["events_dropped"] == 0

    def test_validator_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [{"ph": "X"}]}))
        with pytest.raises(ValueError):
            validate_chrome_trace(bad)


# ---------------------------------------------------------------------------
# A small traced cell: what the proxy records and how it exports
# ---------------------------------------------------------------------------
#: sha256 of the Chrome trace of :func:`traced_cell`, pinned from the
#: tracer that kept one ``Span`` object per event: the column store must
#: export the same bytes.  Re-pinned when the phones began sharing one
#: identifier stream: span attributes carry Call-IDs, and with each one
#: replaced by its order of first appearance the old and new exports
#: are equal
TRACED_CELL_CHROME_SHA256 = (
    "066b8fc1e6d66f7785b2d48c594e25b10f30958b3654617a0155be5ea2586026")


@pytest.fixture(scope="module")
def traced_cell():
    """A golden small ``tcp-persistent`` cell, span tracer on, short
    window (≈13 k events)."""
    return run_cell(ExperimentSpec(
        series="tcp-persistent", clients=8, workers=4, seed=1,
        warmup_us=30_000.0, measure_us=20_000.0, idle_timeout_us=60_000.0,
        scale_windows=False, trace=True))


class TestTracedSmallCell:
    def test_every_process_msg_span_carries_actions(self, traced_cell):
        """``actions`` is set before ``end()`` commits the span, so it
        reaches the recorded row."""
        spans = [span for span in traced_cell.tracer.events()
                 if span.name == "process_msg"]
        assert spans
        assert all("actions" in span.attrs for span in spans)

    def test_chrome_export_is_unchanged(self, traced_cell, tmp_path):
        path = tmp_path / "trace.json"
        tracer = traced_cell.tracer
        count = write_chrome_trace(path, tracer,
                                   extra={"series": "tcp-persistent"})
        assert count == tracer.emitted and tracer.dropped == 0
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == TRACED_CELL_CHROME_SHA256


# ---------------------------------------------------------------------------
# Streaming histogram vs exact percentiles
# ---------------------------------------------------------------------------
def _filled(values):
    hist = StreamingHistogram()
    for value in values:
        hist.add(value)
    return hist


class TestStreamingHistogram:
    def test_agrees_with_exact_percentiles_within_resolution(self):
        # Deterministic long-tailed sample set (no RNG in tests).
        samples = [100.0 * math.exp(3.0 * (i / 997.0) ** 2)
                   for i in range(997)]
        exact = percentiles(samples)
        approx = _filled(samples).percentiles()
        assert set(approx) == set(exact)
        for key in ("p50", "p95", "p99", "p99.9"):
            assert approx[key] == pytest.approx(exact[key], rel=0.06)
        assert approx["mean"] == pytest.approx(exact["mean"], rel=1e-9)

    def test_merge(self):
        a = _filled([1.0, 10.0, 100.0])
        a.merge(_filled([5.0, 50.0]))
        assert a.count == 5
        assert a.percentiles() == \
            _filled([1.0, 10.0, 100.0, 5.0, 50.0]).percentiles()

    def test_percentile_clamped_to_observed_range(self):
        hist = _filled([10.0, 10.0, 10.0])
        assert hist.percentile(99.9) == 10.0
        assert hist.percentile(50) == 10.0


# ---------------------------------------------------------------------------
# Metric sampler
# ---------------------------------------------------------------------------
class TestMetricSampler:
    def test_gauge_rate_and_series_shape(self, engine):
        counter = {"n": 0}

        def bump():
            counter["n"] += 10
            engine.schedule(1_000.0, bump)

        # Offset bumps off the tick boundary so each 10 ms interval
        # contains exactly ten of them regardless of same-instant order.
        engine.schedule(500.0, bump)
        sampler = MetricSampler(engine, interval_us=10_000.0)
        sampler.add_gauge("depth", lambda: counter["n"] % 7)
        sampler.add_rate("bump_rate", lambda: counter["n"])
        sampler.start()
        engine.run(until=50_000.0)
        sampler.stop()
        data = sampler.to_dict()
        assert data["interval_us"] == 10_000.0
        assert data["samples"] == 6  # t=0 plus five ticks
        assert len(data["series"]["depth"]) == 6
        # 10 per ms -> 10k per second, exact under the sim clock.
        assert data["series"]["bump_rate"][1:] == [10_000.0] * 5
        assert data["series"]["bump_rate"][0] == 0.0

    def test_sampling_is_deterministic_across_jobs(self, tmp_path):
        spec = ExperimentSpec(series="udp", clients=3, workers=4,
                              measure_us=40_000.0, warmup_us=20_000.0,
                              sample_us=5_000.0)
        serial = run_cells([spec], jobs=1)[0].result
        # Two distinct-seed specs force the pool path for the pair.
        other = ExperimentSpec(series="udp", clients=3, workers=4,
                               measure_us=40_000.0, warmup_us=20_000.0,
                               sample_us=5_000.0, seed=2)
        parallel = {
            outcome.spec.seed: outcome.result
            for outcome in run_cells([spec, other], jobs=2)
        }[1]
        assert serial.metrics == parallel.metrics
        assert serial.metrics["samples"], "sampler produced no samples"
        assert serial.throughput_ops_s == parallel.throughput_ops_s

    def test_window_mean(self):
        metrics = {"interval_us": 10.0, "t0_us": 0.0, "samples": 4,
                   "series": {"x": [0.0, 1.0, 2.0, 3.0]}}
        # Samples cover the interval *ending* at t: from_us exclusive.
        assert series_window_mean(metrics, "x", 10.0, 30.0) == 2.5
        assert series_window_mean(metrics, "x", 0.0, 30.0) == 2.0
        assert series_window_mean(metrics, "x", 100.0, 200.0) == 0.0

    def test_jsonl_writer(self, tmp_path):
        metrics = {"interval_us": 5.0, "t0_us": 0.0, "samples": 2,
                   "series": {"x": [1.0, 2.0]}}
        path = tmp_path / "m.jsonl"
        lines = write_metrics_jsonl(path, [("udp/3", metrics)])
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines == len(rows) == 3
        assert rows[0]["cell"] == "udp/3" and rows[0]["series"] == ["x"]
        assert rows[1]["values"] == {"x": 1.0}
        assert rows[2]["t_us"] == 5.0

    def test_timeline_report_renders(self):
        metrics = {"interval_us": 1000.0, "t0_us": 0.0, "samples": 8,
                   "series": {"run_queue": [0, 1, 2, 3, 4, 3, 2, 1]}}
        text = TimelineReport(metrics, "cell").render()
        assert "run_queue" in text
        assert "8 samples" in text


# ---------------------------------------------------------------------------
# End-to-end: traced cells and the paper's fd-cache time series
# ---------------------------------------------------------------------------
class TestTracedCells:
    def test_runner_rejects_traced_specs(self):
        with pytest.raises(ValueError, match="trace"):
            run_cells([ExperimentSpec(series="udp", trace=True)], jobs=1)

    def test_traced_cell_not_cached(self):
        from repro.analysis.cache import spec_key
        assert spec_key(ExperimentSpec(series="udp", trace=True)) is None
        assert spec_key(ExperimentSpec(series="udp")) is not None

    @pytest.mark.slow
    def test_tcp_trace_contains_ipc_and_send_spans(self, tmp_path):
        spec = ExperimentSpec(series="tcp-50", clients=20, workers=8,
                              warmup_us=150_000.0, measure_us=150_000.0,
                              scale_windows=False, trace=True)
        result = run_cell(spec)
        tracer = result.tracer
        assert tracer is not None and len(tracer)
        kinds = {(e.cat, e.name) for e in tracer.events()}
        # The supervisor's fd-passing IPC round trip and worker sends —
        # the message-lifecycle spans the §5.2 analysis hinges on.
        assert ("ipc", "fd_request_rtt") in kinds
        assert ("ipc", "tcpconn_send_fd") in kinds
        assert ("proxy", "worker_send") in kinds
        assert ("proxy", "process_msg") in kinds
        assert ("kernel", "context_switch") in kinds
        path = tmp_path / "trace.json"
        write_chrome_trace(path, tracer)
        info = validate_chrome_trace(path)
        assert info["events"] > 100
        assert "fd_request_rtt" in info["names"]

    @pytest.mark.slow
    def test_fd_cache_ipc_share_drops_in_time_series(self):
        """The Fig. 4 claim as a *time series*: within the measured
        window, the fd-cache collapses the supervisor-IPC CPU share."""
        def ipc_share(result):
            window = result.metrics["window_us"]
            mean = series_window_mean(result.metrics, "cpu_ipc_share",
                                      window[0], window[1])
            assert mean is not None
            return mean

        specs = [ExperimentSpec(series="tcp-50", clients=100,
                                fd_cache=fd_cache, sample_us=20_000.0,
                                scale_windows=False)
                 for fd_cache in (False, True)]
        # Sampled cells can cross the runner's process boundary, so the
        # pair runs side by side (parallel results are byte-identical to
        # serial ones).
        without, with_cache = (ipc_share(outcome.result)
                               for outcome in run_cells(specs))
        # Paper: 12.0% -> 4.6% of CPU in fd-passing IPC (§5.2).
        assert without > 0.08
        assert with_cache < without / 2
        assert with_cache < 0.07
