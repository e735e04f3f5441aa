"""Unit tests for the CLI entry point and latency reporting."""

import pytest

from repro.__main__ import build_parser, main, overload_grid
from repro.analysis.overload import (
    DEFAULT_CONTROLLERS,
    DEFAULT_LOAD_FACTORS,
    DEFAULT_SERIES,
)
from repro.clients.workload import percentiles


class TestPercentiles:
    def test_empty(self):
        assert percentiles([]) == {}

    def test_single_sample(self):
        assert percentiles([42.0]) == {"p50": 42.0, "p95": 42.0,
                                       "p99": 42.0, "p99.9": 42.0,
                                       "mean": 42.0}

    def test_ordering_irrelevant(self):
        samples = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentiles(samples) == percentiles(sorted(samples))
        assert percentiles(samples)["p50"] == 3.0

    def test_p99_near_max(self):
        samples = list(range(1, 101))
        out = percentiles(samples)
        assert out["p99"] == 99
        assert out["p50"] == 50
        assert out["p99.9"] == 100
        assert out["mean"] == pytest.approx(50.5)


class TestCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.series == "udp"
        assert args.clients == [100]
        assert args.nice == -20
        assert args.jobs is None
        assert not args.no_cache

    def test_parser_accepts_multiple_client_counts(self):
        args = build_parser().parse_args(
            ["--clients", "100", "500", "1000", "--jobs", "4"])
        assert args.clients == [100, 500, 1000]
        assert args.jobs == 4

    def test_fig_overload_smoke_is_the_ci_grid(self):
        def grid(*argv):
            return overload_grid(build_parser().parse_args(
                ["fig-overload", *argv]))

        assert grid("--smoke") == {
            "series": ("udp",),
            "controllers": ("none", "local-occupancy", "window"),
            "load_factors": (0.5, 2.0), "clients": 16, "workers": 4}
        # flags given explicitly win, the default client count included
        assert grid("--smoke", "--clients", "100", "--load-factors", "1",
                    "--workers", "2") == {
            "series": ("udp",),
            "controllers": ("none", "local-occupancy", "window"),
            "load_factors": (1.0,), "clients": 100, "workers": 2}
        # without --smoke the figure's own defaults apply
        defaults = {"series": DEFAULT_SERIES,
                    "controllers": DEFAULT_CONTROLLERS,
                    "load_factors": DEFAULT_LOAD_FACTORS, "clients": 100,
                    "workers": None}
        assert grid() == defaults
        assert grid("--overload-series", "sctp", "--clients", "8") == dict(
            defaults, series=("sctp",), clients=8)

    @pytest.mark.parametrize("command, module, runner, smoke_clients", [
        ("fig-faults", "repro.analysis.faults", "run_faults_figure", 16),
        ("fig-attr", "repro.analysis.attribution", "run_attr_figure", 24)])
    def test_smoke_gives_way_to_explicit_clients(
            self, monkeypatch, command, module, runner, smoke_clients):
        """``--smoke`` picks the client count only when ``--clients`` is
        not given, as in ``fig-overload``."""
        import importlib

        figures = importlib.import_module(module)
        ran = []
        monkeypatch.setattr(figures, runner,
                            lambda **kwargs: ran.append(kwargs["clients"]))
        monkeypatch.setattr(figures, runner.replace("run_", "render_"),
                            lambda data: "")
        for argv in (["--smoke"], ["--smoke", "--clients", "32"],
                     ["--clients", "32"], []):
            assert main([command, "--no-cache", *argv]) == 0
        assert ran == [smoke_clients, 32, 32, 100]

    def test_parser_rejects_unknown_series(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--series", "carrier-pigeon"])

    def test_cli_runs_a_tiny_cell(self, capsys):
        code = main(["--series", "udp", "--clients", "4",
                     "--measure-us", "50000", "--workers", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput:" in out
        assert "transactions/s" in out

    def test_cli_profile_output(self, capsys):
        code = main(["--series", "udp", "--clients", "2",
                     "--measure-us", "30000", "--workers", "2",
                     "--profile"])
        assert code == 0
        out = capsys.readouterr().out
        assert "parse_msg" in out


def test_benchmark_result_carries_latency_percentiles():
    from repro import ProxyConfig, Testbed, Workload, build_proxy
    from repro.clients import BenchmarkManager
    bed = Testbed(seed=1)
    proxy = build_proxy(bed.server,
                        ProxyConfig(transport="udp", workers=4)).start()
    result = BenchmarkManager(
        bed, proxy, Workload(clients=4, warmup_us=20_000.0,
                             measure_us=60_000.0)).run()
    latency = result.setup_latency_us
    assert set(latency) == {"p50", "p95", "p99", "p99.9", "mean"}
    assert 0 < latency["p50"] <= latency["p95"] <= latency["p99"] \
        <= latency["p99.9"]
    # Setup includes at least two network round trips through the proxy.
    assert latency["p50"] > 100.0
    # Processing latency (BYE round trip) is measured too, and is shorter
    # than setup (one round trip, no provisional responses).
    processing = result.processing_latency_us
    assert set(processing) == set(latency)
    assert 0 < processing["p50"] < latency["p50"]
