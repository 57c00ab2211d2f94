"""Experiment harness and reporting utilities.

This package is the engine room; the public surface is :mod:`repro.api`
(declarative :class:`~repro.api.ExperimentSpec` + futures-based
:class:`~repro.api.Session`, which drives
:class:`repro.analysis.experiments.ExperimentRunner`).
"""

from repro.analysis.executor import (
    ProcessPoolSweepExecutor,
    RunHandle,
    RunTask,
    SerialSweepExecutor,
    SweepExecutor,
    SweepPlan,
    iter_completed,
    resolve_jobs,
)
from repro.analysis.experiments import FIGURES, TABLES
from repro.analysis.runcache import RunCache
from repro.analysis.figures import FigureData, FigureSeries, TableData
from repro.analysis.report import figure_summary, render_figure, render_table

__all__ = [
    "FIGURES",
    "FigureData",
    "FigureSeries",
    "ProcessPoolSweepExecutor",
    "RunCache",
    "RunHandle",
    "RunTask",
    "SerialSweepExecutor",
    "SweepExecutor",
    "SweepPlan",
    "TABLES",
    "TableData",
    "figure_summary",
    "iter_completed",
    "render_figure",
    "render_table",
    "resolve_jobs",
]
