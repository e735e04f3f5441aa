"""Unit tests for the experiment drivers and table rendering."""

import pytest

from repro.analysis.experiments import (
    ExperimentSpec,
    SCALED_IDLE_TIMEOUT_US,
    TIME_COMPRESSION,
    run_cell,
)
from repro.analysis.cache import spec_key
from repro.analysis.paper_data import CLIENT_COUNTS, PAPER_FIGURES, SERIES
from repro.analysis.tables import render_comparison


class TestExperimentSpec:
    def test_series_mapping(self):
        assert ExperimentSpec(series="udp").transport() == "udp"
        assert ExperimentSpec(series="tcp-50").transport() == "tcp"
        assert ExperimentSpec(series="tcp-persistent").ops_per_conn() is None

    def test_ops_per_conn_compressed_with_timeout(self):
        spec = ExperimentSpec(series="tcp-50",
                              idle_timeout_us=SCALED_IDLE_TIMEOUT_US)
        assert spec.ops_per_conn() == round(50 / TIME_COMPRESSION)

    def test_uncompressed_timeout_keeps_nominal_ops(self):
        spec = ExperimentSpec(series="tcp-50",
                              idle_timeout_us=10_000_000.0)
        assert spec.ops_per_conn() == 50
        long_spec = ExperimentSpec(series="tcp-50",
                                   idle_timeout_us=120_000_000.0)
        assert long_spec.ops_per_conn() == 50

    def test_ops_override(self):
        spec = ExperimentSpec(series="tcp-50", ops_per_conn_override=7)
        assert spec.ops_per_conn() == 7

    def test_default_workers_follow_the_paper(self):
        assert ExperimentSpec(series="udp").default_workers() == 24
        assert ExperimentSpec(series="tcp-persistent").default_workers() == 32

    def test_churn_warmup_covers_population_buildup(self):
        spec = ExperimentSpec(series="tcp-50")
        warmup, __ = spec.windows()
        assert warmup >= 2.0 * spec.idle_timeout_us

    def test_explicit_windows_win(self):
        spec = ExperimentSpec(series="tcp-50", warmup_us=1.0, measure_us=2.0)
        assert spec.windows() == (1.0, 2.0)

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_non_finite_repro_scale_rejected(self, scale, monkeypatch):
        # A NaN/infinite measurement window would never end the cell.
        monkeypatch.setenv("REPRO_SCALE", scale)
        with pytest.raises(ValueError):
            run_cell(ExperimentSpec(series="udp", clients=4, workers=2,
                                    warmup_us=20e3, measure_us=20e3))

    def test_non_numeric_repro_scale_rejected(self, monkeypatch):
        # Not silently 1.0: the scale enters the cache key.
        monkeypatch.setenv("REPRO_SCALE", "fast")
        with pytest.raises(ValueError, match="REPRO_SCALE='fast'.*positive"):
            spec_key(ExperimentSpec())

    def test_unknown_series_rejected(self):
        with pytest.raises(ValueError, match="'bogus'.*tcp-persistent"):
            run_cell(ExperimentSpec(series="bogus"))

    @pytest.mark.parametrize("rate", [0.0, -5.0])
    def test_open_loop_needs_a_positive_rate(self, rate):
        with pytest.raises(ValueError, match="offered_cps"):
            run_cell(ExperimentSpec(offered_cps=rate))


class TestPaperData:
    def test_every_figure_has_full_grid(self):
        for figure in PAPER_FIGURES.values():
            assert set(figure) == set(SERIES)
            for row in figure.values():
                assert set(row) == set(CLIENT_COUNTS)

    def test_udp_identical_across_figures(self):
        assert PAPER_FIGURES["fig3"]["udp"] == PAPER_FIGURES["fig4"]["udp"]

    def test_fixes_improve_tcp_in_paper_data(self):
        for count in CLIENT_COUNTS:
            assert PAPER_FIGURES["fig5"]["tcp-50"][count] > \
                PAPER_FIGURES["fig3"]["tcp-50"][count]


class TestTables:
    def grid(self):
        return {"udp": {100: 30000.0, 1000: 28000.0},
                "tcp-persistent": {100: 15000.0, 1000: 10000.0}}

    def test_render_comparison_has_a_row_per_client_count(self):
        rows = render_comparison("fig3", self.grid()).split("\n")[2:]
        assert [row.split()[-5] for row in rows] == \
            [str(count) for count in CLIENT_COUNTS] * 2
        # no measurement at 500 clients: dashes, not a ratio
        measured, __, ratio, __ = rows[1].split()[-4:]
        assert measured == ratio == "-"

    def test_render_comparison_shows_ratios(self):
        text = render_comparison("fig3", self.grid())
        assert "0.50" in text  # measured tcp/udp at 100
        assert "0.43" in text  # paper ratio at 100
