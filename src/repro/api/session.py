"""Sessions: executor + cache lifecycle and futures-based streaming sweeps.

A :class:`Session` binds one :class:`~repro.api.spec.ExperimentSpec` to one
execution environment (worker pool, on-disk run cache) and exposes the
futures surface: :meth:`Session.submit` returns
:class:`~repro.analysis.executor.RunHandle` objects, figures *subscribe* to
their grid's handles and aggregate as results stream in, and
:meth:`Session.figures` overlaps one figure's aggregation with the next
figure's execution on a shared pool.  Results are bit-identical to the
legacy batch path (``tests/test_api_session.py`` pins this for serial and
parallel executors, cold and warm caches).

Execution-knob resolution (the one documented place)
----------------------------------------------------
:func:`resolve_execution` is the **single** resolution point for the
execution knobs.  Precedence, highest first:

1. explicit arguments — a ``Session(...)`` keyword, a CLI flag, or a
   pinned ``ExperimentSpec.engine`` field;
2. the environment: ``REPRO_ENGINE``, ``REPRO_JOBS``, ``REPRO_CACHE_DIR``,
   ``REPRO_BACKEND``;
3. defaults: the ``fast`` engine, serial execution (jobs=1), cache off,
   the ``local`` backend.

``backend="cluster"`` swaps the sweep executor for the socket
broker/worker fabric (:mod:`repro.cluster`): the session hosts a
:class:`~repro.cluster.broker.ClusterBroker` at ``broker=`` (default: an
ephemeral local TCP port), optionally spawns ``workers=N`` co-located
worker processes, and materialises the spec's traces to a columnar spool
directory that co-located workers mmap instead of regenerating
(:mod:`repro.workloads.spool`).  Figure streaming, caching, and results
are unchanged — cluster sweeps are bit-identical to serial ones
(``tests/test_cluster.py``).

Explicit spec/session values therefore always beat ``REPRO_*`` variables.
``cache_dir=""`` (explicit empty string) force-disables the cache even when
``REPRO_CACHE_DIR`` is exported, matching the legacy
:class:`~repro.analysis.runcache.RunCache` contract.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.aggregate import SeriesStats

from repro.analysis.executor import (
    BACKEND_ENV,
    JOBS_ENV,
    RunHandle,
    SweepPlan,
    iter_completed,
    resolve_backend,
    resolve_jobs,
)
from repro.analysis.experiments import (
    FIGURES,
    TABLES,
    ExperimentRunner,
    HarnessConfig,
)
from repro.analysis.figures import FigureData, TableData
from repro.analysis.runcache import CACHE_DIR_ENV, RunCache
from repro.api.spec import ExperimentSpec, RunPoint
from repro.sim.config import ENGINE_ENV, SIMULATION_ENGINES
from repro.sim.stats import RunStatistics

#: Default engine when neither the spec nor ``REPRO_ENGINE`` pins one.
DEFAULT_ENGINE = "fast"


@dataclass(frozen=True)
class ExecutionPlan:
    """The fully resolved execution knobs of one session."""

    engine: str
    jobs: int
    cache_dir: Optional[str]
    backend: str = "local"


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
                      backend: Optional[str] = None) -> ExecutionPlan:
    """Resolve every execution knob in one place (see the module docstring).

    ``engine`` (argument) beats ``spec.engine`` beats ``$REPRO_ENGINE``;
    ``jobs``/``cache_dir``/``backend`` arguments beat ``$REPRO_JOBS``/
    ``$REPRO_CACHE_DIR``/``$REPRO_BACKEND``.
    ``jobs=None`` defers to the environment; ``jobs=0`` does too (the legacy
    HarnessConfig convention).  ``cache_dir=None`` defers, ``""`` disables.

    Engines: ``fast`` (default) and ``cycle`` (the per-cycle reference —
    bisect engine regressions with ``REPRO_ENGINE=cycle``), one grid point
    per task.  Both are bit-identical (``tests/test_engine_equivalence.py``
    and the differential fuzz corpus).
    """

    if engine is None and spec is not None:
        engine = spec.engine
    resolved_engine = resolve_engine(engine)
    resolved_jobs = resolve_jobs(jobs or 0)
    resolved_backend = resolve_backend(backend)
    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_DIR_ENV)
        if not cache_dir:
            cache_dir = None
    elif cache_dir == "":
        cache_dir = None
    return ExecutionPlan(engine=resolved_engine, jobs=resolved_jobs,
                         cache_dir=cache_dir, backend=resolved_backend)


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
    :func:`resolve_execution`, builds the (legacy) runner it drives, and
    closes the worker pool on exit.  Alone-IPC baselines are first-class:
    :meth:`submit_alone` shards one handle per trace across the same pool
    the grid runs use.
    """

    def __init__(self, spec: Optional[ExperimentSpec] = None, *,
                 jobs: Optional[int] = None,
                 cache_dir: Optional[str] = None,
                 engine: Optional[str] = None,
                 backend: Optional[str] = None,
                 broker: Optional[str] = None,
                 workers: Optional[int] = None,
                 spool_dir: Optional[str] = None,
                 workload_dir: Optional[str] = None) -> None:
        spec = spec if spec is not None else ExperimentSpec()
        self.execution = resolve_execution(spec, jobs=jobs,
                                           cache_dir=cache_dir,
                                           engine=engine, backend=backend)
        self.spec = spec.resolved(self.execution.engine)
        # Where ingested (``ingest:``) mixes load from; explicit argument
        # beats REPRO_WORKLOAD_DIR (resolved by the workload catalog).
        self._workload_dir = workload_dir
        self._spool_owned: Optional[str] = None
        resolved_spool = self._resolve_spool_dir(spool_dir)
        self._runner = ExperimentRunner(HarnessConfig.from_spec(
            self.spec,
            jobs=self.execution.jobs,
            # "" force-disables so an exported REPRO_CACHE_DIR can never
            # resurrect a cache the resolution chain decided against.
            cache_dir=self.execution.cache_dir or "",
            backend=self.execution.backend,
            broker=broker,
            cluster_workers=workers or 0,
            spool_dir=resolved_spool,
            workload_dir=workload_dir,
        ), _api_owned=True)
        self._closed = False
        if resolved_spool is not None:
            try:
                self.materialise_spool()
            except BaseException:
                # Spooling failed (read-only/full filesystem): tear the
                # half-built session down — worker pool / cluster broker
                # included — instead of leaking it from a failed __init__.
                self.close()
                raise

    def _resolve_spool_dir(self, spool_dir: Optional[str]) -> Optional[str]:
        """Where this spec's traces spool to (``None`` = no spooling).

        Cluster sessions always spool — that is how co-located workers
        share page cache instead of regenerating traces — preferring a
        stable per-spec directory under the run-cache root, else a
        session-owned temporary directory.  Local sessions spool only when
        ``spool_dir`` is passed explicitly.
        """

        if spool_dir is not None:
            return str(Path(spool_dir).expanduser())
        if self.execution.backend != "cluster":
            return None
        if self.execution.cache_dir:
            return str(Path(self.execution.cache_dir).expanduser()
                       / f"spool-{self.spec.fingerprint(self._workload_dir)}")
        self._spool_owned = tempfile.mkdtemp(prefix="repro-spool-")
        return self._spool_owned

    def materialise_spool(self) -> int:
        """Write the spec's mixes to the spool once; returns mixes written.

        Already-spooled mixes (matching scale, seed, and fingerprint) are
        left untouched, so repeat sessions over a shared cache directory
        materialise nothing.
        """

        from repro.workloads.spool import TraceSpool

        config = self._runner.config
        if not config.spool_dir:
            return 0
        spool = TraceSpool(config.spool_dir)
        written = 0
        for seed in self.spec.seeds:
            for name in (*self.spec.attack_mixes, *self.spec.benign_mixes):
                written += spool.dump_mix(
                    self._runner.mix(name, seed), seed=seed,
                    entries_per_core=config.entries_per_core,
                    attacker_entries=config.attacker_entries,
                    fingerprint=self._runner.fingerprint,
                )
        return written

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def runner(self) -> ExperimentRunner:
        """The legacy runner this session drives (shared caches)."""

        return self._runner

    @property
    def jobs(self) -> int:
        return self._runner.jobs

    @property
    def engine(self) -> str:
        return self.spec.engine

    @property
    def backend(self) -> str:
        return self.execution.backend

    @property
    def spool_dir(self) -> Optional[str]:
        """The columnar trace spool this session's workers mmap, if any."""

        return self._runner.config.spool_dir

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
        """Uniform observability snapshot — works on **every** backend.

        Unlike :meth:`cluster_stats` (which raises on local sessions),
        this returns the same shape everywhere: the resolved execution
        knobs, the executor run counter, and the persistent
        :class:`RunCache` counters (``None`` when the cache is disabled).
        Cluster sessions additionally nest the broker's scheduling and
        elasticity counters under ``"cluster"``.  This is what the
        experiment service serves from ``GET /statsz``.
        """

        data: Dict[str, object] = {
            "backend": self.backend,
            "engine": self.engine,
            "jobs": self.jobs,
            "fingerprint": self.fingerprint,
            "runs_executed": self.runs_executed,
            "cache": (self.cache.stats() if self.cache is not None
                      else None),
        }
        if self.backend == "cluster":
            data["cluster"] = self.cluster_stats()
        return data

    def cluster_stats(self) -> Dict[str, object]:
        """Scheduling/elasticity counters of the cluster backend.

        A snapshot of the broker's observable state: scheduling mode,
        ``scheduled_by_cost`` / ``chunked_claims`` / ``autoscale_events``
        counters, per-worker served/elapsed tallies, queue depth, and the
        cost model's learned-table size and persistence path.  Raises
        :class:`TypeError` on non-cluster sessions (same contract as
        :func:`repro.cluster.cluster_broker`).
        """

        from repro.cluster import cluster_broker

        return cluster_broker(self).stats()

    def close(self) -> None:
        if not self._closed:
            self._runner.close()
            if self._spool_owned is not None:
                shutil.rmtree(self._spool_owned, ignore_errors=True)
                self._spool_owned = None
            self._closed = True

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
        overlaps execution), and the figure's aggregation then reads the
        warm caches.  Bit-identical to the legacy batch
        ``ExperimentRunner.figureN`` path.

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
        self._consume(runner.submit_plan(plan))
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
            self._consume(runner.submit_plan(escalation))
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

        submitted: Dict[str, List[RunHandle]] = {}
        for figure_id in dict.fromkeys(figure_ids):
            kwargs = kwargs_by_figure.get(figure_id, {})
            plan = self._runner.figure_plan(figure_id, **kwargs)
            submitted[figure_id] = self._runner.submit_plan(plan)
        results: Dict[str, FigureData] = {}
        for figure_id, handles in submitted.items():
            self._consume(handles)
            kwargs = kwargs_by_figure.get(figure_id, {})
            results[figure_id] = self._aggregate_fn(figure_id)(**kwargs)
        return results

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
        self._consume(self._runner.submit_plan(
            self._runner.headline_plan(nrh)
        ))
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

    @staticmethod
    def _consume(handles: Sequence[RunHandle]) -> None:
        for handle in iter_completed(handles):
            handle.result()
