"""Pluggable sweep execution: serial and multi-process backends.

The experiment harness drives every paper figure from the same
embarrassingly parallel grid of (mix, mechanism, N_RH, BreakHammer)
simulation runs.  :class:`SweepExecutor` abstracts *how* that grid is
executed:

* :class:`SerialSweepExecutor` — in-process, one run at a time; the
  reference behaviour (and what workers themselves use);
* :class:`ProcessPoolSweepExecutor` — shards tasks across a
  ``concurrent.futures.ProcessPoolExecutor``.  Each worker process builds
  its own :class:`~repro.analysis.experiments.ExperimentRunner` from the
  pickled ``(ExperimentSpec, ExecutionPlan)`` pair and **regenerates
  traces deterministically from (spec, seed)** — traces are never shipped
  by value.  Only the picklable :class:`~repro.sim.stats.RunStatistics`
  results travel back.

Every backend dispatches through :meth:`SweepExecutor.submit`: each task
returns a future immediately, so :class:`repro.api.Session` overlaps
aggregation with execution and consumes results in completion order.  On
the serial backend the future is lazy (the task runs when its result is
first demanded), preserving the reference serial execution order.

Simulations are deterministic functions of their configuration, so a
parallel sweep produces results bit-identical to a serial one
(``tests/test_sweep_executor.py`` / ``tests/test_api_session.py`` pin
this contract).

:class:`ExecutionPlan` carries the resolved execution knobs; the one
resolution point for them (arguments over ``REPRO_*`` variables over
defaults) is :func:`repro.api.session.resolve_execution`, which calls
:func:`resolve_jobs` here.  Nothing below the session reads the
environment.
"""

from __future__ import annotations

import dataclasses
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Environment variable selecting the sweep worker count.
JOBS_ENV = "REPRO_JOBS"

#: Task kinds understood by the executors.
TASK_RUN = "run"
TASK_ALONE = "alone"


@dataclass(frozen=True)
class RunTask:
    """One unit of sweep work, picklable and self-describing.

    ``kind`` is ``"run"`` (one grid-point simulation, the result is a
    :class:`RunStatistics`) or ``"alone"`` (the standalone-IPC baseline of
    one trace of a mix, the result is an :class:`AloneResult`).
    """

    kind: str
    mix_name: str
    seed: int = 0
    mechanism: str = "none"
    nrh: int = 0
    breakhammer: bool = False
    trace_index: int = 0


@dataclass(frozen=True)
class AloneResult:
    """The standalone-IPC baseline of one trace (picklable)."""

    trace_name: str
    trace_length: int
    ipc: float


@dataclass(frozen=True)
class ExecutionPlan:
    """The fully resolved execution knobs of one session.

    None of them affects simulation *results*: the run-cache namespace is
    the spec's fingerprint alone.  ``jobs`` is the worker-process count
    (1 = serial) and ``cache_dir=None`` disables the on-disk run cache.
    """

    engine: str
    jobs: int = 1
    cache_dir: Optional[str] = None


@dataclass(frozen=True)
class SweepPlan:
    """The declarative run grid behind one figure (or any sweep).

    ``runs`` lists (mix, mechanism, nrh, breakhammer) grid points,
    ``alone_mixes`` names the mixes whose per-trace standalone-IPC
    baselines the aggregation needs, and ``meta`` records the resolved
    figure parameters (mechanism list, mixes, sweep, …).  A figure's plan
    is derived from its ``FIGURE_DEFS`` entry
    (:mod:`repro.analysis.experiments`) and its frames read the same
    ``meta``, so the grid and the aggregation can never drift apart.
    ``seeds`` is the statistical axis: the grid (alone baselines
    included) is executed once per seed, and the figure aggregation folds
    the per-seed frames into mean ± CI cells
    (:mod:`repro.analysis.aggregate`).  Plans are what
    :meth:`~repro.analysis.experiments.ExperimentRunner.submit_plan`
    dispatches as futures, for :class:`repro.api.Session` and for each
    ``figureN`` method alike.
    """

    figure_id: str
    runs: Tuple[Tuple[str, str, int, bool], ...] = ()
    alone_mixes: Tuple[str, ...] = ()
    seeds: Tuple[int, ...] = (0,)
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def empty(self) -> bool:
        return not self.runs and not self.alone_mixes


class RunHandle:
    """A future-backed subscription to one submitted sweep task.

    Handles are what figures (and any other consumer) subscribe to:
    ``result()`` blocks until the task's outcome is available, merges it
    into the owning runner's caches exactly once, and returns it.  A
    handle over an already-cached point is born completed.  The outcome is
    a :class:`repro.sim.stats.RunStatistics` for grid runs and an
    :class:`AloneResult` for standalone-IPC baselines.
    """

    __slots__ = ("task", "key", "_future", "_merge", "_merged", "_outcome")

    def __init__(self, task: Optional[RunTask], key, future,
                 merge=None) -> None:
        self.task = task
        self.key = key
        self._future = future
        self._merge = merge
        self._merged = False
        self._outcome = None

    @classmethod
    def completed(cls, key, outcome) -> "RunHandle":
        """A handle born resolved (the point was already cached)."""

        handle = cls(task=None, key=key, future=None)
        handle._outcome = outcome
        handle._merged = True
        return handle

    @property
    def cached(self) -> bool:
        """Whether this handle was served from a cache at submission."""

        return self.task is None

    def done(self) -> bool:
        return self._future is None or self._future.done()

    def result(self, timeout: Optional[float] = None):
        if self._future is not None:
            self._outcome = self._future.result(timeout)
            self._future = None
        if not self._merged:
            if self._merge is not None:
                self._merge(self._outcome)
            self._merged = True
        return self._outcome


def iter_completed(handles: Sequence[RunHandle]):
    """Yield handles roughly in completion order.

    Pool-backed handles are yielded as their futures complete (the
    streaming path: aggregation overlaps execution); cached and lazy
    serial handles are yielded first, in submission order — on the serial
    backend that *is* the reference execution order.  Every handle is
    yielded exactly once.
    """

    from concurrent.futures import Future, as_completed

    pooled: Dict[object, List[RunHandle]] = {}
    immediate: List[RunHandle] = []
    for handle in handles:
        future = handle._future
        if isinstance(future, Future):
            pooled.setdefault(future, []).append(handle)
        else:
            immediate.append(handle)
    for handle in immediate:
        yield handle
    for future in as_completed(pooled):
        yield from pooled[future]


class _LazyFuture:
    """A future that evaluates its thunk on first ``result()`` demand.

    The serial executor hands these out from :meth:`submit` so that a
    "streamed" serial sweep still executes tasks one at a time, in the
    order their results are consumed — the reference behaviour — while
    presenting the same future interface as the process pool.

    ``result(timeout)`` semantics: the thunk runs synchronously on the
    calling thread, so a timeout cannot *preempt* it — it is honoured
    after the fact instead.  When evaluation overruns ``timeout``,
    :class:`concurrent.futures.TimeoutError` is raised exactly as a pool
    future would have done at that moment; the computed outcome stays
    cached (``done()`` turns true, matching a pool task that kept running
    past its caller's patience), so a retrying ``result()`` returns it
    immediately.
    """

    __slots__ = ("_thunk", "_outcome", "_error", "_done")

    def __init__(self, thunk) -> None:
        self._thunk = thunk
        self._outcome = None
        self._error: Optional[BaseException] = None
        self._done = False

    def result(self, timeout: Optional[float] = None):
        overran = False
        if not self._done:
            started = time.perf_counter()
            try:
                self._outcome = self._thunk()
            except BaseException as exc:  # noqa: BLE001 - future semantics
                self._error = exc
            self._done = True
            self._thunk = None
            overran = (timeout is not None
                       and time.perf_counter() - started > timeout)
        if self._error is not None:
            raise self._error
        if overran:
            raise FuturesTimeoutError(
                f"serial task took longer than the requested "
                f"timeout of {timeout}s (the outcome is cached; "
                "a retry returns it immediately)"
            )
        return self._outcome

    def done(self) -> bool:
        return self._done


def evaluate_task(runner, task: RunTask):
    """Execute one task against ``runner`` (parent or worker side)."""

    if task.kind == TASK_RUN:
        return runner.run(task.mix_name, task.mechanism, task.nrh,
                          task.breakhammer, seed=task.seed)
    if task.kind == TASK_ALONE:
        mix = runner.mix(task.mix_name, task.seed)
        trace = mix.traces[task.trace_index]
        return AloneResult(trace_name=trace.name, trace_length=len(trace),
                           ipc=runner.alone_ipc(trace))
    raise ValueError(f"unknown sweep task kind {task.kind!r}")


def resolve_jobs(requested: int = 0) -> int:
    """The effective worker count: explicit request, else $REPRO_JOBS, else 1.

    ``0`` defers to the environment; a negative request is an error, never
    silently replaced.
    """

    if requested < 0:
        raise ValueError(
            f"jobs must be a non-negative integer, got {requested}"
        )
    if requested:
        return requested
    env = os.environ.get(JOBS_ENV, "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ValueError(
                f"{JOBS_ENV}={env!r} is not an integer worker count"
            ) from exc
    return 1


class SweepExecutor:
    """Dispatches :class:`RunTask` units of sweep work as futures."""

    jobs: int = 1

    def submit(self, task: RunTask):
        """Dispatch one task, returning a future-like object.

        The returned object offers ``result()`` / ``done()``.  Process
        pools return real :class:`concurrent.futures.Future` instances
        (tasks run eagerly in workers); the serial backend returns a
        :class:`_LazyFuture` that executes on demand.
        """

        raise NotImplementedError

    def close(self) -> None:
        """Release any pooled resources (idempotent)."""


class SerialSweepExecutor(SweepExecutor):
    """Runs every task in-process through the owning runner."""

    def __init__(self, runner) -> None:
        self._runner = runner

    def submit(self, task: RunTask) -> _LazyFuture:
        return _LazyFuture(lambda: evaluate_task(self._runner, task))


# ---------------------------------------------------------------------- #
# Worker-process side.  The initializer builds one ExperimentRunner per
# process from the pickled spec and execution plan; mixes and standalone
# baselines are memoised per worker, so a worker that receives several grid
# points of the same mix regenerates its traces only once.
# ---------------------------------------------------------------------- #
_WORKER_RUNNER = None


def _worker_init(spec, execution: ExecutionPlan) -> None:
    global _WORKER_RUNNER
    from repro.analysis.experiments import ExperimentRunner

    _WORKER_RUNNER = ExperimentRunner(spec, execution)


def _worker_execute(task: RunTask):
    if _WORKER_RUNNER is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("sweep worker used before initialisation")
    return evaluate_task(_WORKER_RUNNER, task)


class ProcessPoolSweepExecutor(SweepExecutor):
    """Shards tasks across worker processes, one future per task."""

    def __init__(self, spec, execution: ExecutionPlan) -> None:
        if execution.jobs < 2:
            raise ValueError("a process pool needs at least two workers")
        # Workers run strictly serially (jobs=1): no nested pools.  They
        # keep the disk cache, so each persists the entries it computes.
        self._worker_args = (spec, dataclasses.replace(execution, jobs=1))
        self.jobs = execution.jobs
        self._pool: Optional[ProcessPoolExecutor] = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_worker_init,
                initargs=self._worker_args,
            )
        return self._pool

    def submit(self, task: RunTask):
        return self._ensure_pool().submit(_worker_execute, task)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None


def make_executor(runner) -> SweepExecutor:
    """The executor ``runner.execution.jobs`` selects: serial or a pool."""

    if runner.execution.jobs <= 1:
        return SerialSweepExecutor(runner)
    return ProcessPoolSweepExecutor(runner.spec, runner.execution)
