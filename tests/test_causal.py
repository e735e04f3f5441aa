"""Tests for causal tracing, journey reconstruction and attribution."""

import json

import pytest

from repro import ProxyConfig, Testbed, Workload, build_proxy
from repro.clients import BenchmarkManager
from repro.obs import StreamingHistogram
from repro.obs.causal import CausalTracer, Segment, classify_charge
from repro.obs.chrome_trace import validate_chrome_trace, write_journey_trace
from repro.obs.journey import build_journeys, decompose, journey_windows
from repro.obs.attribution import (
    ALL_COMPONENTS,
    aggregate_journeys,
    attribution_table,
    render_waterfall,
)
from repro.overload.controller import OverloadController

from conftest import map_in_workers

INVITE = ("INVITE sip:bob@example.com SIP/2.0\r\n"
          "Via: SIP/2.0/UDP client1:5060;branch=z9hG4bK776asdhds\r\n"
          "Call-ID: a84b4c76e66710@client1\r\n"
          "CSeq: 314159 INVITE\r\n"
          "\r\n")


# ---------------------------------------------------------------------------
# trace-id sniffing and charge classification
# ---------------------------------------------------------------------------
class TestSniff:
    def test_call_id_plus_cseq_method(self):
        assert CausalTracer.sniff(INVITE) == "a84b4c76e66710@client1/INVITE"

    def test_method_disambiguates_dialog_transactions(self):
        bye = INVITE.replace("CSeq: 314159 INVITE", "CSeq: 314160 BYE")
        assert CausalTracer.sniff(bye) == "a84b4c76e66710@client1/BYE"
        assert CausalTracer.sniff(bye) != CausalTracer.sniff(INVITE)

    def test_no_call_id_is_untraced(self):
        assert CausalTracer.sniff("\r\n") is None
        assert CausalTracer.sniff("OPTIONS sip:x SIP/2.0\r\n\r\n") is None

    def test_missing_cseq_falls_back_to_bare_call_id(self):
        text = "X\r\nCall-ID: abc\r\n\r\n"
        assert CausalTracer.sniff(text) == "abc"


class TestClassifyCharge:
    def test_lock_labels(self):
        assert classify_charge("lock.txn_table.acquire") == "lock"
        assert classify_charge("kernel.sched_yield") == "lock"

    def test_ipc_labels(self):
        for label in ("ipc_send_fd_request", "ipc_recv", "receive_fd",
                      "tcpconn_send_fd", "ipc_send", "send_fd"):
            assert classify_charge(label) == "ipc"

    def test_everything_else_is_cpu(self):
        assert classify_charge("parse_msg") == "cpu"
        assert classify_charge("tcp_send") == "cpu"


# ---------------------------------------------------------------------------
# CausalTracer mechanics
# ---------------------------------------------------------------------------
class TestCausalTracer:
    def test_note_skips_untagged_and_empty(self, engine):
        causal = CausalTracer(engine)
        causal.note(None, "cpu", "w", 0.0, 5.0)
        causal.note("tid", "cpu", "w", 5.0, 5.0)  # zero length
        causal.note("tid", "cpu", "w", 7.0, 5.0)  # negative
        assert len(causal) == 0
        causal.note("tid", "cpu", "w", 0.0, 5.0)
        assert len(causal) == 1

    def test_ring_buffer_evicts_oldest(self, engine):
        causal = CausalTracer(engine, capacity=4)
        for k in range(10):
            causal.note(f"t{k}", "cpu", "w", float(k), k + 1.0)
        assert len(causal) == 4
        assert causal.emitted == 10
        assert causal.dropped == 6
        assert causal.tids() == ["t6", "t7", "t8", "t9"]

    def test_block_hint_handshake(self, engine):
        causal = CausalTracer(engine)
        causal.ctx_begin("server/w0", "tid")
        causal.on_block_start("server/w0", "ipc")
        engine.schedule(40.0, lambda: None)
        engine.run()
        causal.on_block_end("server/w0", 0.0)
        (seg,) = list(causal.segments)
        assert (seg.tid, seg.kind, seg.duration_us) == ("tid", "ipc", 40.0)

    def test_hint_ignored_without_context(self, engine):
        causal = CausalTracer(engine)
        causal.on_block_start("server/phone-proc", "ipc")  # no ctx -> dropped
        causal.on_block_end("server/phone-proc", 0.0)
        assert len(causal) == 0
        # ...and the reason did not leak into the next blocker, which
        # (a Sleep, a Wait naming no reason) never reaches on_block_start.
        causal.ctx_begin("server/w1", "tid")
        causal.on_block_end("server/w1", 0.0)
        assert len(causal) == 0

    def test_runq_earliest_stamp_wins(self, engine):
        causal = CausalTracer(engine)
        causal.ctx_begin("server/w0", "tid")
        causal.on_runq_push("server/w0")
        engine.schedule(30.0, lambda: None)
        engine.run()
        causal.on_runq_push("server/w0")  # re-push must not reset clock
        engine.schedule(20.0, lambda: None)
        engine.run()
        causal.on_runq_pop("server/w0")
        (seg,) = list(causal.segments)
        assert (seg.kind, seg.duration_us) == ("runq", 50.0)

    def test_charge_is_classified_and_backdated(self, engine):
        causal = CausalTracer(engine)
        causal.ctx_begin("server/w0", "tid")
        engine.schedule(100.0, lambda: None)
        engine.run()
        causal.on_charge("server/w0", "parse_msg", 12.0)
        causal.on_charge("server/w0", "ipc_recv", 6.0)
        segs = list(causal.segments)
        assert [(s.kind, s.start_us, s.end_us) for s in segs] == \
            [("cpu", 88.0, 100.0), ("ipc", 94.0, 100.0)]

    def test_ctx_end_stops_attribution(self, engine):
        causal = CausalTracer(engine)
        causal.ctx_begin("server/w0", "tid")
        causal.ctx_end("server/w0")
        causal.on_charge("server/w0", "parse_msg", 5.0)
        assert len(causal) == 0


# ---------------------------------------------------------------------------
# journey reconstruction
# ---------------------------------------------------------------------------
def seg(kind, start, end, tid="t", who="w"):
    return Segment(tid, kind, who, float(start), float(end))


class TestDecompose:
    def test_sums_to_window_with_gaps(self):
        parts = decompose([seg("network", 0, 10), seg("cpu", 30, 40)],
                          0.0, 50.0)
        assert parts["network"] == 10.0
        assert parts["cpu"] == 10.0
        assert parts["other"] == 30.0
        assert sum(parts.values()) == 50.0

    def test_retransmission_overlap_not_double_counted(self):
        # A retransmitted request re-tags the same trace id: two network
        # segments covering the same interval must count once.
        parts = decompose([seg("network", 0, 20), seg("network", 5, 20),
                           seg("network", 10, 25)], 0.0, 25.0)
        assert parts["network"] == 25.0
        assert parts["other"] == 0.0
        assert sum(parts.values()) == 25.0

    def test_clipped_to_window(self):
        parts = decompose([seg("cpu", -10, 5), seg("ipc", 20, 99)],
                          0.0, 30.0)
        assert parts["cpu"] == 5.0
        assert parts["ipc"] == 10.0
        assert sum(parts.values()) == 30.0

    def test_overlapping_kinds_first_start_wins(self):
        # A lock charge emitted inside a blocked-ipc interval: the
        # cursor walk keeps the earlier-starting evidence.
        parts = decompose([seg("ipc", 0, 20), seg("lock", 10, 15)],
                          0.0, 20.0)
        assert parts["ipc"] == 20.0
        assert parts["lock"] == 0.0


class TestJourneyWindows:
    def test_earliest_send_and_final_win(self, engine):
        causal = CausalTracer(engine)
        causal.marks = [("t1", "uac_send", "caller0", 100.0),
                        ("t1", "uac_send", "caller0", 600.0),  # rtx
                        ("t1", "uac_final", "caller0", 900.0)]
        assert journey_windows(causal) == [("t1", "caller0", 100.0, 900.0)]

    def test_no_final_no_window(self, engine):
        causal = CausalTracer(engine)
        causal.marks = [("t1", "uac_send", "caller0", 100.0)]
        assert journey_windows(causal) == []

    def test_window_filter_excludes_warmup(self, engine):
        causal = CausalTracer(engine)
        causal.marks = [("warm", "uac_send", "c", 10.0),
                        ("warm", "uac_final", "c", 20.0),
                        ("meas", "uac_send", "c", 110.0),
                        ("meas", "uac_final", "c", 130.0)]
        journeys = build_journeys(causal, window=(100.0, 200.0))
        assert [j.tid for j in journeys] == ["meas"]


class TestAggregate:
    def test_empty(self):
        assert aggregate_journeys([]) == {"journeys": 0}
        assert attribution_table({}) == "no journeys recorded"

    def test_shares_sum_to_one(self, engine):
        causal = CausalTracer(engine)
        causal.note("t1", "cpu", "w", 0.0, 60.0)
        causal.marks = [("t1", "uac_send", "c0", 0.0),
                        ("t1", "uac_final", "c0", 100.0),
                        ("t2", "uac_send", "c1", 0.0),
                        ("t2", "uac_final", "c1", 50.0)]
        attribution = aggregate_journeys(build_journeys(causal))
        assert attribution["journeys"] == 2
        assert attribution["callers"] == 2
        assert sum(attribution["shares"].values()) == pytest.approx(1.0)
        assert attribution["mean_total_us"] == pytest.approx(75.0)
        assert attribution["latency_us"]["p99"] >= \
            attribution["latency_us"]["p50"]
        text = attribution_table(attribution, label="x")
        for kind in ALL_COMPONENTS:
            assert kind in text


class TestWaterfall:
    #: render_waterfall(causal, "c9") for the tracer below, as the
    #: segment-object implementation printed it
    EXPECTED = (
        "journey c9/INVITE  caller=caller0  total=90.0us\n"
        "   network .....##########                                 "
        "     20.0us  fabric\n"
        "     sockq ................######                          "
        "     12.0us  server:udp\n"
        "       cpu ........................########                "
        "     15.0us  server/w1 (parse_msg)\n"
        "   network ................................#############   "
        "     25.0us  fabric\n"
        "       sum network=45.0  sockq=12.0  cpu=15.0  other=18.0\n"
        "\n"
        "journey c9/BYE  caller=caller0  total=50.0us\n"
        "   network ###                                             "
        "      4.0us  fabric\n"
        "      lock ....#                                           "
        "      1.0us  server/w0 (lock.txn_table.spin)\n"
        "       cpu .....########################################## "
        "     44.0us  server/w0 (t_unref)\n"
        "       sum network=4.0  lock=1.0  cpu=44.0  other=1.0")

    def test_output_is_unchanged(self, engine):
        """Two journeys match, one does not; the ring has wrapped, so the
        oldest two rows (one of them a c9 segment) are gone."""
        causal = CausalTracer(engine, capacity=8)
        for row in [
                ("old/INVITE", "cpu", "server/w0", 0.0, 5.0, "parse_msg"),
                ("c9/INVITE", "network", "fabric", 10.0, 40.0, None),
                ("c9/INVITE", "cpu", "server/w1", 55.0, 70.0, "parse_msg"),
                ("c9/INVITE", "network", "fabric", 20.0, 40.0, None),
                ("x1/INVITE", "cpu", "server/w0", 12.0, 30.0, "parse_msg"),
                ("c9/INVITE", "sockq", "server:udp", 40.0, 52.0, None),
                ("c9/BYE", "lock", "server/w0", 205.0, 206.0,
                 "lock.txn_table.spin"),
                ("c9/BYE", "network", "fabric", 200.0, 204.0, None),
                ("c9/INVITE", "network", "fabric", 70.0, 95.0, None),
                ("c9/BYE", "cpu", "server/w0", 206.0, 300.0, "t_unref")]:
            causal.note(*row)
        causal.marks = [("c9/INVITE", "uac_send", "caller0", 10.0),
                        ("x1/INVITE", "uac_send", "caller1", 11.0),
                        ("c9/INVITE", "uac_final", "caller0", 100.0),
                        ("x1/INVITE", "uac_final", "caller1", 31.0),
                        ("c9/BYE", "uac_send", "caller0", 200.0),
                        ("c9/BYE", "uac_final", "caller0", 250.0)]
        assert render_waterfall(causal, "c9") == self.EXPECTED
        assert render_waterfall(causal, "zz") == \
            "no completed journey matches call-id 'zz'"


# ---------------------------------------------------------------------------
# StreamingHistogram.merge (satellite: per-phone fold without re-bucketing)
# ---------------------------------------------------------------------------
def _filled(values):
    hist = StreamingHistogram()
    for value in values:
        hist.add(value)
    return hist


class TestHistogramMerge:
    def test_merge_equals_adding_everything(self):
        xs = [10.0, 55.0, 120.0, 900.0]
        ys = [5.0, 64.0, 3200.0]
        a, both = _filled(xs), _filled(xs + ys)
        a.merge(_filled(ys))
        assert len(a) == len(both)
        assert a.mean == pytest.approx(both.mean)
        for point in (50, 95, 99):
            assert a.percentile(point) == both.percentile(point)

    def test_merge_empty_is_identity(self):
        a = _filled([1.0, 2.0, 4.0])
        before = a.percentiles()
        a.merge(StreamingHistogram())
        assert a.percentiles() == before

    def test_quantile_stability_across_split_order(self):
        # Folding per-phone histograms must give the same quantiles
        # however the samples were partitioned.
        samples = [float(1 + (7 * k) % 5000) for k in range(2000)]
        whole = _filled(samples)
        merged = StreamingHistogram()
        for start in range(0, len(samples), 137):
            merged.merge(_filled(samples[start:start + 137]))
        for point in (50, 95, 99, 99.9):
            assert merged.percentile(point) == whole.percentile(point)
        assert merged.mean == pytest.approx(whole.mean)


# ---------------------------------------------------------------------------
# live cells
# ---------------------------------------------------------------------------
SMALL = dict(warmup_us=30_000.0, measure_us=100_000.0)


def run_causal_cell(transport="tcp", clients=5, workers=4, seed=1,
                    controller=None, workload=None, **config):
    bed = Testbed(seed=seed, causal=True)
    proxy = build_proxy(bed.server, ProxyConfig(
        transport=transport, workers=workers, **config)).start()
    if controller is not None:
        controller.bind(proxy)
        proxy.controller = controller
        proxy.core.controller = controller
    manager = BenchmarkManager(bed, proxy, Workload(
        clients=clients, **{**SMALL, **(workload or {})}))
    result = manager.run()
    journeys = build_journeys(bed.causal, window=manager.measured_window)
    return bed, proxy, result, journeys


def assert_identity(journeys, rel_tol=0.01):
    """Per-journey decomposition must sum to the end-to-end latency."""
    assert journeys
    for j in journeys:
        total = sum(j.components.values())
        assert total == pytest.approx(j.total_us, rel=rel_tol), j.tid


class TestLiveAttribution:
    def test_tcp_journeys_decompose_and_show_ipc(self):
        bed, __, result, journeys = run_causal_cell(fd_cache=False)
        assert result.calls_failed == 0
        assert_identity(journeys)
        attribution = aggregate_journeys(journeys)
        # Cross-connection forwards need supervisor fd IPC; it must be
        # visible on the critical path.
        assert attribution["shares"]["ipc"] > 0.0
        assert attribution["shares"]["network"] > 0.0
        assert attribution["shares"]["cpu"] > 0.0
        assert bed.causal.dropped == 0

    def test_udp_journeys_have_no_ipc(self):
        __, __, result, journeys = run_causal_cell(transport="udp")
        assert result.calls_failed == 0
        assert_identity(journeys)
        attribution = aggregate_journeys(journeys)
        assert attribution["shares"]["ipc"] == 0.0

    @staticmethod
    def observed_like_unobserved(transport):
        """Run one cell plain and causal-traced; the simulated numbers
        must agree.  Returns the traced run's journeys."""
        bed = Testbed(seed=3)
        proxy = build_proxy(bed.server, ProxyConfig(
            transport=transport, workers=4)).start()
        plain = BenchmarkManager(bed, proxy,
                                 Workload(clients=5, **SMALL)).run()
        __, __, traced, journeys = run_causal_cell(transport=transport,
                                                   seed=3)
        assert traced.throughput_ops_s == plain.throughput_ops_s
        assert traced.ops == plain.ops
        return journeys

    def test_causal_off_produces_identical_numbers(self):
        self.observed_like_unobserved("tcp")

    @pytest.mark.parametrize("transport", ["tcp-threaded", "sctp"])
    def test_alt_arch_workers_carry_the_causal_context(self, transport):
        # The shared worker loops open a per-message context for every
        # flavor: CPU spent on a message attributes to it (0.0 for these
        # two while they ran their own loop copies).
        journeys = self.observed_like_unobserved(transport)
        assert_identity(journeys)
        assert aggregate_journeys(journeys)["shares"]["cpu"] > 0.0

    def test_rejected_503_journey_has_no_ipc_segment(self):
        # The 503 fast path replies on the arrival connection: no
        # supervisor descriptor round trip even over TCP.
        class RejectAll(OverloadController):
            name = "reject-all"

            def admit(self, now, source):
                return False

        bed, __, result, journeys = run_causal_cell(
            controller=RejectAll(), fd_cache=False)
        assert result.calls_completed == 0
        assert bed.causal.counters.get("core.rejected_503", 0) > 0
        invites = [j for j in journeys if j.method == "INVITE"]
        assert invites, "503 round trips should still form journeys"
        assert_identity(invites)
        for j in invites:
            assert j.components["ipc"] == 0.0, j.tid

    def test_journey_survives_worker_restart(self):
        from repro.analysis.experiments import ExperimentSpec, run_cell
        from repro.faults import FaultPlan, WorkerCrash

        plan = FaultPlan([WorkerCrash(start_us=30_000.0, worker=0)])
        spec = ExperimentSpec(series="tcp-persistent", clients=8, workers=4,
                              seed=3, causal=True, scale_windows=False,
                              warmup_us=50_000.0, measure_us=150_000.0,
                              fault_plan=plan.to_dict(), watchdog=True)
        result = run_cell(spec)
        assert result.proxy_stats["workers_restarted"] >= 1
        assert result.attribution["journeys"] > 0
        assert_identity(result.journeys)
        # The dead worker's trace-id context must not leak onto its
        # namesake successor.
        who = f"{result.testbed.server.name}/tcp-worker-0"
        restart_t = result.faults["restarts"][0]["t_us"]
        stale = [s for s in result.causal.segments
                 if s.who == who and s.start_us < restart_t < s.end_us]
        assert stale == []

    def test_retransmitted_invite_single_journey(self):
        # Open-loop overload with a compressed T1 and a small receive
        # buffer: UAC retransmissions re-mark uac_send, but each
        # transaction still yields exactly one journey clocked from the
        # first send.
        bed, __, result, journeys = run_causal_cell(
            transport="udp", clients=8, workers=4, seed=2,
            sip_t1_us=20_000.0, udp_rcvbuf_datagrams=16,
            workload=dict(warmup_us=100_000.0, measure_us=400_000.0,
                          offered_cps=20_000.0))
        assert result.client_retransmissions > 0
        causal = bed.causal
        sends = {}
        for tid, which, __, t_us in causal.marks:
            if which == "uac_send":
                sends.setdefault(tid, []).append(t_us)
        retransmitted = {tid for tid, ts in sends.items() if len(ts) >= 2}
        assert retransmitted, "overload cell produced no rtx-marked tids"
        journeys = {j.tid: j for j in journeys}
        hit = [tid for tid in retransmitted if tid in journeys]
        assert hit, "no retransmitted transaction completed in-window"
        for tid in hit:
            assert journeys[tid].start_us == min(sends[tid])
        assert_identity(list(journeys.values()))


# ---------------------------------------------------------------------------
# exports and CLI
# ---------------------------------------------------------------------------
class TestJourneyExport:
    def test_journey_trace_has_named_lanes(self, tmp_path):
        bed, __, __, journeys = run_causal_cell()
        path = tmp_path / "journey.json"
        count = write_journey_trace(path, bed.causal, extra={"fix": "none"})
        assert count == len(bed.causal.segments) + len(bed.causal.marks)
        info = validate_chrome_trace(path)
        assert info["metadata"] > 0  # M-phase lane names accepted
        assert {"network", "sockq", "ipc", "cpu"} <= info["names"]
        assert {"uac_send", "uac_final"} <= info["names"]
        payload = json.loads(path.read_text())
        meta_names = {event["args"]["name"]
                      for event in payload["traceEvents"]
                      if event["ph"] == "M"}
        # Server workers, the supervisor machine row and phone lanes all
        # get readable names.
        assert "server" in meta_names
        assert any(name.startswith("tcp-worker-") for name in meta_names)
        assert any(name.startswith("caller") for name in meta_names)

    def test_waterfall_renders_segments(self):
        bed, __, __, journeys = run_causal_cell()
        call_id = journeys[0].tid.split("/")[0]
        text = render_waterfall(bed.causal, call_id)
        assert "journey" in text and "network" in text
        assert render_waterfall(bed.causal, "no-such-call").startswith(
            "no completed journey")

    def test_attribution_lands_in_benchmark_result(self):
        from repro.analysis.attribution import attr_spec
        from repro.analysis.experiments import run_cell

        result = run_cell(attr_spec("tcp", "none", clients=5, smoke=True))
        assert result.attribution["journeys"] > 0
        assert set(result.attribution["shares"]) == set(ALL_COMPONENTS)
        json.dumps(result.attribution)  # JSON-clean for the cache schema

    def test_causal_specs_rejected_by_runner_and_cache(self):
        from repro.analysis.attribution import attr_spec
        from repro.analysis.cache import spec_payload
        from repro.analysis.runner import run_cells

        spec = attr_spec("tcp", "none", smoke=True)
        assert spec_payload(spec) is None
        with pytest.raises(ValueError, match="causal"):
            run_cells([spec], jobs=1)

    def test_fig_attr_cli_smoke(self, tmp_path, monkeypatch, capsys):
        from repro.__main__ import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out_json = tmp_path / "attr.json"
        trace = tmp_path / "journeys.json"
        assert main(["fig-attr", "--smoke", "--transport", "tcp",
                     "--fixes", "none", "--clients", "6", "--workers", "4",
                     "--json", str(out_json),
                     "--journey-trace", str(trace)]) == 0
        data = json.loads(out_json.read_text())
        cell = data["grid"]["none"]
        assert cell["attribution"]["journeys"] > 0
        assert cell["journey_sample"]
        sample = cell["journey_sample"][0]
        assert set(sample) == {"tid", "who", "method", "start_us",
                               "end_us", "total_us", "components"}
        assert validate_chrome_trace(trace)["metadata"] > 0
        out = capsys.readouterr().out
        assert "latency attribution" in out


# ---------------------------------------------------------------------------
# the acceptance figure (slow)
# ---------------------------------------------------------------------------
def _attr_figure_cell(fix):
    """One fix's cell of the TCP attribution figure (JSON-ready)."""
    from repro.analysis.attribution import run_attr_figure

    return run_attr_figure(transport="tcp", fixes=(fix,))["grid"][fix]


@pytest.mark.slow
def test_fd_cache_collapses_critical_path_ipc_share():
    """Acceptance: the fd cache moves TCP critical-path IPC share from
    ~12% (paper Table 3: 12.0%) to under 5% (paper: 4.6%)."""
    fixes = ("none", "fdcache")
    grid = dict(zip(fixes, map_in_workers(_attr_figure_cell, fixes)))
    none_share = grid["none"]["attribution"]["shares"]["ipc"]
    cached_share = grid["fdcache"]["attribution"]["shares"]["ipc"]
    assert 0.08 <= none_share <= 0.18, none_share
    assert cached_share < 0.05, cached_share
    assert cached_share < none_share / 2.0
    for fix in fixes:
        attribution = grid[fix]["attribution"]
        total = sum(attribution["components_us"].values())
        assert total == pytest.approx(attribution["mean_total_us"],
                                      rel=0.01)
