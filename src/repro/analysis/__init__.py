"""Experiment drivers and result rendering.

:mod:`~repro.analysis.experiments` runs the paper's cells;
:mod:`~repro.analysis.runner` fans independent cells across worker
processes; :mod:`~repro.analysis.cache` persists deterministic results
on disk; :mod:`~repro.analysis.paper_data` holds the published numbers;
:mod:`~repro.analysis.tables` renders measured-vs-paper tables for every
figure.
"""

from repro.analysis.experiments import (
    ExperimentSpec,
    figure_specs,
    run_cell,
    TCP_WORKERS,
    UDP_WORKERS,
)
from repro.analysis.attribution import (
    attr_spec,
    render_attr_figure,
    run_attr_figure,
)
from repro.analysis.cache import ResultCache, spec_key
from repro.analysis.overload import (
    OVERLOAD_T1_US,
    capacity_spec,
    overload_spec,
    render_overload_figure,
    run_overload_figure,
)
from repro.analysis.runner import CellOutcome, default_jobs, run_cells
from repro.analysis.paper_data import PAPER_FIGURES, SERIES, CLIENT_COUNTS
from repro.analysis.tables import render_comparison

__all__ = [
    "ExperimentSpec",
    "figure_specs",
    "run_cell",
    "run_cells",
    "CellOutcome",
    "ResultCache",
    "spec_key",
    "default_jobs",
    "UDP_WORKERS",
    "TCP_WORKERS",
    "PAPER_FIGURES",
    "SERIES",
    "CLIENT_COUNTS",
    "render_comparison",
    "OVERLOAD_T1_US",
    "capacity_spec",
    "overload_spec",
    "run_overload_figure",
    "render_overload_figure",
    "attr_spec",
    "run_attr_figure",
    "render_attr_figure",
]
