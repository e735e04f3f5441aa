"""End-to-end tests: the §6 alternatives (SCTP and threaded TCP)."""

import pytest

from repro import ProxyConfig, Testbed, Workload, build_proxy
from repro.clients import BenchmarkManager

SMALL = dict(warmup_us=30_000.0, measure_us=100_000.0)


def run_cell(transport, clients=5, workers=4, seed=1, **config):
    bed = Testbed(seed=seed)
    proxy = build_proxy(bed.server, ProxyConfig(
        transport=transport, workers=workers, **config)).start()
    result = BenchmarkManager(bed, proxy,
                              Workload(clients=clients, **SMALL)).run()
    return bed, proxy, result


class TestSctp:
    def test_calls_complete(self):
        __, proxy, result = run_cell("sctp")
        assert result.ops > 30
        assert result.calls_failed == 0
        assert proxy.stats.parse_errors == 0

    def test_no_fd_machinery_at_all(self):
        __, proxy, __ = run_cell("sctp")
        assert proxy.stats.fd_requests == 0
        assert proxy.stats.idle_scans == 0
        assert proxy.stats.accepts == 0  # kernel-managed associations

    @pytest.mark.slow

    def test_sctp_between_tcp_and_udp(self):
        """§6: SCTP keeps the symmetric architecture, so it should land
        near UDP and beat baseline TCP."""
        __, __, udp = run_cell("udp", clients=10, seed=3)
        __, __, sctp = run_cell("sctp", clients=10, seed=3)
        __, __, tcp = run_cell("tcp", clients=10, seed=3)
        assert tcp.throughput_ops_s < sctp.throughput_ops_s
        assert sctp.throughput_ops_s <= udp.throughput_ops_s * 1.05

    def test_associations_reused_per_phone(self):
        __, proxy, __ = run_cell("sctp")
        # 5 callers + 5 callees, one association each.
        assert len(proxy.socket.associations) == 10


class TestThreaded:
    def test_calls_complete(self):
        __, proxy, result = run_cell("tcp-threaded")
        assert result.ops > 30
        assert result.calls_failed == 0

    def test_no_fd_requests(self):
        """§6: a shared address space needs no descriptor passing."""
        __, proxy, __ = run_cell("tcp-threaded")
        assert proxy.stats.fd_requests == 0

    @pytest.mark.slow

    def test_threaded_beats_process_tcp(self):
        __, __, procs = run_cell("tcp", clients=10, seed=4)
        __, __, threads = run_cell("tcp-threaded", clients=10, seed=4)
        assert threads.throughput_ops_s > procs.throughput_ops_s

    @pytest.mark.slow

    def test_threaded_close_is_single_phase(self):
        bed = Testbed(seed=2)
        proxy = build_proxy(bed.server, ProxyConfig(
            transport="tcp-threaded", workers=4,
            idle_timeout_us=100_000.0)).start()
        wl = Workload(clients=4, ops_per_conn=6, warmup_us=30_000.0,
                      measure_us=300_000.0)
        BenchmarkManager(bed, proxy, wl).run()
        # The acceptor sweeps on a 1 s tick: let a few elapse.
        bed.engine.run(until=bed.engine.now + 2_500_000.0)
        assert proxy.stats.conns_closed_idle > 0
        # No two-step worker-release protocol exists here.
        assert proxy.stats.conns_released_by_worker == 0
