"""Sessions: executor + cache lifecycle and futures-based streaming sweeps.

A :class:`Session` binds one :class:`~repro.api.spec.ExperimentSpec` to one
execution environment (worker pool, on-disk run cache) and exposes the
futures surface: :meth:`Session.submit` returns
:class:`~repro.analysis.executor.RunHandle` objects, figures *subscribe* to
their grid's handles and aggregate as results stream in, and
:meth:`Session.figures` overlaps one figure's aggregation with the next
figure's execution on a shared pool.  Results are bit-identical to an
executor-free serial evaluation of the same frames
(``tests/test_api_session.py`` pins this for serial and parallel
executors, cold and warm caches).

Execution-knob resolution (the one documented place)
----------------------------------------------------
:func:`resolve_execution` is the **single** resolution point for the
execution knobs.  Precedence, highest first:

1. explicit arguments — a ``Session(...)`` keyword, a CLI flag, or a
   pinned ``ExperimentSpec.engine`` field;
2. the environment: ``REPRO_ENGINE``, ``REPRO_JOBS``, ``REPRO_CACHE_DIR``;
3. defaults: the ``fast`` engine, serial execution (jobs=1), cache off.

Explicit spec/session values therefore always beat ``REPRO_*`` variables,
and nothing below the session reads them again.  ``cache_dir=""``
(explicit empty string) force-disables the cache even when
``REPRO_CACHE_DIR`` is exported.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.aggregate import SeriesStats
from repro.analysis.executor import (
    ExecutionPlan,
    RunHandle,
    iter_completed,
    resolve_jobs,
)
from repro.analysis.experiments import FIGURES, TABLES, ExperimentRunner
from repro.analysis.figures import FigureData, TableData
from repro.analysis.runcache import CACHE_DIR_ENV, RunCache
from repro.api.spec import ExperimentSpec, RunPoint
from repro.sim.config import ENGINE_ENV, SIMULATION_ENGINES
from repro.sim.stats import RunStatistics

#: Default engine when neither the spec nor ``REPRO_ENGINE`` pins one.
DEFAULT_ENGINE = "fast"


def resolve_engine(explicit: Optional[str] = None) -> str:
    """The effective engine: explicit value, else ``$REPRO_ENGINE``, else fast."""

    engine = explicit
    if engine is None:
        env = os.environ.get(ENGINE_ENV, "").strip().lower()
        engine = env or DEFAULT_ENGINE
    if engine not in SIMULATION_ENGINES:
        raise ValueError(
            f"engine {engine!r} (from "
            f"{'argument/spec' if explicit else ENGINE_ENV}) is not one of "
            f"{SIMULATION_ENGINES}"
        )
    return engine


def resolve_execution(spec: Optional[ExperimentSpec] = None,
                      jobs: Optional[int] = None,
                      cache_dir: Optional[str] = None,
                      engine: Optional[str] = None,
                      workload_dir: Optional[str] = None) -> ExecutionPlan:
    """Resolve every execution knob in one place (see the module docstring).

    ``engine`` (argument) beats ``spec.engine`` beats ``$REPRO_ENGINE``;
    ``jobs``/``cache_dir`` arguments beat ``$REPRO_JOBS``/
    ``$REPRO_CACHE_DIR``.
    ``jobs=None`` and ``jobs=0`` defer to the environment; a negative
    ``jobs`` is rejected.  ``cache_dir=None`` defers, ``""`` disables.
    ``workload_dir`` passes through.

    Engines: ``fast`` (default) and ``cycle`` (the per-cycle reference —
    bisect engine regressions with ``REPRO_ENGINE=cycle``), one grid point
    per task.  Both are bit-identical (``tests/test_engine_equivalence.py``
    and the differential fuzz corpus).
    """

    if engine is None and spec is not None:
        engine = spec.engine
    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_DIR_ENV)
    return ExecutionPlan(
        engine=resolve_engine(engine),
        jobs=resolve_jobs(jobs or 0),
        cache_dir=cache_dir or None,
        workload_dir=workload_dir,
    )


class Session:
    """Owns executor + cache lifecycle for one :class:`ExperimentSpec`.

    Usage::

        from repro.api import ExperimentSpec, Session

        with Session(ExperimentSpec.fast(), jobs=4) as session:
            handle = session.submit("MMLA", "para", 64, True)
            stats = handle.result()          # one grid point
            fig8 = session.figure("fig8")    # streamed figure sweep
            all_figs = session.figures(["fig6", "fig7", "fig12"])

    The session resolves its execution knobs once, up front, through
    :func:`resolve_execution`, builds the :class:`ExperimentRunner` it
    drives from the resolved spec and :class:`ExecutionPlan`, and closes
    the worker pool on exit.  Alone-IPC baselines are first-class:
    :meth:`submit_alone` shards one handle per trace across the same pool
    the grid runs use.

    ``backend`` accepts only ``"local"``, the default, which existing
    callers still pass; any other value raises :class:`ValueError`,
    because the cluster backend was removed.
    """

    def __init__(self, spec: Optional[ExperimentSpec] = None, *,
                 jobs: Optional[int] = None,
                 cache_dir: Optional[str] = None,
                 engine: Optional[str] = None,
                 backend: str = "local",
                 workload_dir: Optional[str] = None) -> None:
        if backend != "local":
            raise ValueError(
                f"backend={backend!r}: the cluster backend was removed; "
                "sweeps run serially or on a process pool (jobs=N), and "
                "'local' is the only accepted value"
            )
        spec = spec if spec is not None else ExperimentSpec()
        self.execution = resolve_execution(
            spec, jobs=jobs, cache_dir=cache_dir, engine=engine,
            workload_dir=workload_dir,
        )
        self.spec = spec.resolved(self.execution.engine)
        self._closed = False
        self._runner = ExperimentRunner(self.spec, self.execution)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def runner(self) -> ExperimentRunner:
        """The engine this session drives (shared caches and executor)."""

        return self._runner

    @property
    def jobs(self) -> int:
        return self._runner.jobs

    @property
    def engine(self) -> str:
        return self.spec.engine

    @property
    def cache(self) -> Optional[RunCache]:
        return self._runner.disk_cache

    @property
    def fingerprint(self) -> str:
        return self._runner.fingerprint

    @property
    def runs_executed(self) -> int:
        return self._runner.runs_executed

    def stats(self) -> Dict[str, object]:
        """Observability snapshot of the session.

        The resolved execution knobs, the executor run counter, and the
        persistent :class:`RunCache` counters (``None`` when the cache is
        disabled).
        """

        return {
            "engine": self.engine,
            "jobs": self.jobs,
            "fingerprint": self.fingerprint,
            "runs_executed": self.runs_executed,
            "cache": (self.cache.stats() if self.cache is not None
                      else None),
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._runner.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Futures surface
    # ------------------------------------------------------------------ #
    def submit(self, mix: str, mechanism: str, nrh: int,
               breakhammer: bool = False, seed: int = 0) -> RunHandle:
        """Submit one grid point; returns its (possibly completed) handle."""

        return self._runner.submit_prefetch(
            [(mix, mechanism, nrh, breakhammer)], seed=seed
        )[0]

    def submit_point(self, point: RunPoint) -> RunHandle:
        return self.submit(point.mix, point.mechanism, point.nrh,
                           point.breakhammer, point.seed)

    def submit_grid(self, points: Iterable[RunPoint]) -> List[RunHandle]:
        """Submit many grid points: one handle per *distinct* point.

        Duplicates collapse, so the returned list can be shorter than the
        input; when the input may contain repeats, key results by point
        (``dict(zip(dict.fromkeys(points), handles))``) instead of zipping
        against the raw input.
        """

        by_seed: Dict[int, List[RunPoint]] = {}
        order: List[RunPoint] = []
        for point in points:
            by_seed.setdefault(point.seed, []).append(point)
            order.append(point)
        handles: Dict[RunPoint, RunHandle] = {}
        for seed, group in by_seed.items():
            submitted = self._runner.submit_prefetch(
                [p.as_run_spec() for p in group], seed=seed
            )
            for point, handle in zip(dict.fromkeys(group), submitted):
                handles[point] = handle
        return [handles[point] for point in dict.fromkeys(order)]

    def submit_alone(self, mix: str, seed: int = 0) -> List[RunHandle]:
        """One handle per trace of ``mix``'s standalone-IPC baselines.

        The baselines are sharded across the same worker pool as grid
        runs — they are ordinary spec points, not a serial preamble.
        """

        return self._runner.submit_prefetch([], alone_mixes=[mix], seed=seed)

    def run(self, mix: str, mechanism: str, nrh: int,
            breakhammer: bool = False, seed: int = 0) -> RunStatistics:
        """Blocking convenience: submit one point and wait for its result."""

        return self.submit(mix, mechanism, nrh, breakhammer, seed).result()

    # ------------------------------------------------------------------ #
    # Streamed figures
    # ------------------------------------------------------------------ #
    def figure(self, figure_id: str, *,
               target_ci: Optional[float] = None,
               max_seeds: Optional[int] = None, **kwargs) -> FigureData:
        """Compute one figure through the streaming path.

        The figure's declarative :class:`SweepPlan` is submitted as
        futures; results are merged into the session's caches in
        completion order (out-of-order on a pool — aggregation bookkeeping
        overlaps execution), and the figure's ``ExperimentRunner.figureN``
        aggregation then reads the warm caches.

        ``target_ci`` switches to an **adaptive campaign**: the spec's
        base seed batch runs first, and additional seeds are then
        submitted *only for the grid points whose 95% CI half-width is
        still wider than the target*, round by round, until every cell
        meets the target or the campaign has consumed ``max_seeds``
        distinct seeds (default: the base batch plus four).  Cells of the
        result may therefore carry different sample counts — each
        :class:`~repro.analysis.aggregate.SeriesStats` records its own
        ``n``.  Requires at least two base seeds (one sample has no CI to
        compare).
        """

        if target_ci is None:
            if max_seeds is not None:
                raise ValueError("max_seeds only applies with target_ci")
            return self.stream(figure_id, **kwargs)
        return self._adaptive_figure(figure_id, target_ci, max_seeds, kwargs)

    def _adaptive_figure(self, figure_id: str, target_ci: float,
                         max_seeds: Optional[int],
                         kwargs: Dict[str, object]) -> FigureData:
        runner = self._runner
        plan = runner.figure_plan(figure_id, **kwargs)
        if plan.empty:
            raise ValueError(
                f"figure {figure_id!r} has no sweep plan to adapt"
            )
        if len(plan.seeds) < 2:
            raise ValueError(
                "adaptive campaigns need at least two seeds in the spec: "
                "one sample has a degenerate CI, so target_ci could never "
                "trigger an escalation"
            )
        runner.resolve_plan(plan)
        frames = [runner.figure_frame(plan, seed) for seed in plan.seeds]
        template = frames[0]
        # Per-cell sample lists, in the template's (series, x) order — the
        # escalation loop appends to wide cells only, so counts go ragged.
        samples: Dict[Tuple[str, object], List[float]] = {}
        for frame in frames:
            for label, series in frame.series.items():
                for index, x in enumerate(frame.x_values):
                    samples.setdefault((label, x), []).append(
                        series.values[index]
                    )
        used = list(plan.seeds)
        budget = max_seeds if max_seeds is not None else len(plan.seeds) + 4
        while True:
            wide = [
                cell for cell, values in samples.items()
                if SeriesStats.from_samples(values).ci95 > target_ci
            ]
            if not wide or len(used) >= budget:
                break
            new_seed = max(used) + 1
            escalation = dataclasses.replace(
                runner.escalation_plan(plan, wide), seeds=(new_seed,)
            )
            runner.resolve_plan(escalation)
            frame = runner.figure_frame(escalation, new_seed)
            for label, x in wide:
                samples[(label, x)].append(
                    frame.series[label].values[frame.x_values.index(x)]
                )
            used.append(new_seed)
        figure = FigureData(
            figure_id=template.figure_id,
            title=template.title,
            x_label=template.x_label,
            y_label=template.y_label,
            x_values=list(template.x_values),
            notes=template.notes,
        )
        for label in template.series:
            stats = [SeriesStats.from_samples(samples[(label, x)])
                     for x in template.x_values]
            figure.add_series(label, [cell.mean for cell in stats],
                              stats=stats)
        return figure

    def figures(self, figure_ids: Sequence[str],
                **kwargs_by_figure) -> Dict[str, FigureData]:
        """Compute several figures, overlapping aggregation with execution.

        Every figure's plan is submitted up front (shared points are
        deduplicated — overlapping grids execute once); each figure is
        then aggregated as soon as *its* handles have completed, while the
        later figures' remaining points are still executing in the pool.
        ``kwargs_by_figure`` maps a figure id to its keyword arguments.
        """

        wanted = {figure_id: kwargs_by_figure.get(figure_id, {})
                  for figure_id in figure_ids}
        for figure_id, kwargs in wanted.items():
            self._runner.submit_plan(
                self._runner.figure_plan(figure_id, **kwargs))
        return {figure_id: self._aggregate_fn(figure_id)(**kwargs)
                for figure_id, kwargs in wanted.items()}

    def stream(self, figure_id: str, on_result=None, **kwargs) -> FigureData:
        """Like :meth:`figure`, invoking ``on_result(handle)`` per completion.

        The callback observes every handle (cached ones included) in
        completion order — progress bars and live dashboards subscribe
        here without changing the aggregation result.
        """

        aggregate = self._aggregate_fn(figure_id)
        plan = self._runner.figure_plan(figure_id, **kwargs)
        for handle in iter_completed(self._runner.submit_plan(plan)):
            handle.result()
            if on_result is not None:
                on_result(handle)
        return aggregate(**kwargs)

    def headline_numbers(self, nrh: Optional[int] = None) -> Dict[str, float]:
        return self._runner.headline_numbers(nrh)

    def table(self, table_id: str) -> TableData:
        if table_id not in TABLES:
            raise ValueError(
                f"unknown table {table_id!r}; one of {sorted(TABLES)}"
            )
        return getattr(self._runner, TABLES[table_id])()

    # ------------------------------------------------------------------ #
    def _aggregate_fn(self, figure_id: str):
        if figure_id not in FIGURES:
            raise ValueError(
                f"unknown figure {figure_id!r}; one of {sorted(FIGURES)}"
            )
        return getattr(self._runner, FIGURES[figure_id])
