"""Experiment harness: one entry point per paper figure/table.

:class:`ExperimentRunner` owns a simulation-scale profile (cycles per run,
workload sizes, the N_RH sweep), memoises simulation runs and standalone-IPC
baselines, and exposes ``figure2()`` … ``figure19()``, ``table1()`` …
``table3()`` and ``hardware_complexity()`` methods that return
:class:`repro.analysis.figures.FigureData` / ``TableData`` objects shaped
like the paper's artefacts.

.. deprecated::
    ``ExperimentRunner`` / ``HarnessConfig`` are the **legacy facade**.
    New code should describe sweeps with :class:`repro.api.ExperimentSpec`
    and execute them through :class:`repro.api.Session`, which adds
    futures-based streaming aggregation and owns executor + cache
    lifecycle (see ROADMAP.md "Running sweeps" for the timeline).  Both
    classes remain fully functional shims: the runner is the engine the
    session drives, every ``figureN`` grid is now declared once as a
    :class:`~repro.analysis.executor.SweepPlan` shared by both paths, and
    results are bit-identical whichever entry point computed them.

Scale
-----
Runs are deliberately short (tens of thousands of controller cycles) so that
the whole harness finishes in minutes of pure Python; the paper's qualitative
structure — which mechanism wins, how trends move with N_RH, where
BreakHammer helps and where it cannot — is preserved.  See DESIGN.md §2 and
EXPERIMENTS.md for the paper-vs-measured record.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.aggregate import aggregate_figures, aggregate_headlines
from repro.analysis.executor import (
    AloneResult,
    RunHandle,
    RunTask,
    SerialSweepExecutor,
    SweepExecutor,
    SweepPlan,
    TASK_ALONE,
    TASK_RUN,
    make_executor,
)
from repro.analysis.figures import FigureData, TableData
from repro.analysis.runcache import RunCache
from repro.core.hardware_model import HardwareCostModel
from repro.core.security import SecurityAnalysis
from repro.cpu.trace import Trace
from repro.mitigations.registry import (
    MOTIVATION_MECHANISMS,
    PAIRED_MECHANISMS,
)
from repro.sim.config import (
    SimulationConfig,
    SystemConfig,
    config_fingerprint,
)
from repro.sim.metrics import geometric_mean, max_slowdown, weighted_speedup
from repro.sim.simulator import SimulationResult, Simulator
from repro.sim.stats import RunStatistics
from repro.workloads.attacker import AttackerConfig
from repro.workloads.characteristics import (
    PAPER_TABLE3,
    average_row,
    characterize_suite,
)
from repro.workloads.mixes import (
    ATTACK_MIXES,
    BENIGN_MIXES,
    WorkloadMix,
    make_mix,
)


@dataclass(frozen=True)
class HarnessConfig:
    """Scale knobs of the experiment harness.

    ``engine`` selects the simulation driver for every run the harness
    executes (see :class:`repro.sim.config.SimulationConfig`).  The figure
    sweeps default to the event-driven ``"fast"`` engine — it produces
    statistics identical to the ``"cycle"`` engine while skipping the
    cycles in which nothing can happen, which multiplies sweep throughput.

    ``jobs`` selects the sweep execution backend: values above 1 shard the
    run grid across that many worker processes; 0 (the default) defers to
    the ``REPRO_JOBS`` environment variable, falling back to serial.
    Parallel sweeps produce results bit-identical to serial ones.

    ``cache_dir`` points the persistent on-disk run cache at a directory:
    ``None`` (default) defers to ``REPRO_CACHE_DIR``, an empty string
    force-disables the cache even when that variable is exported, and
    when neither names a directory the disk cache is off.

    ``backend`` selects the sweep execution fabric: ``"local"`` (serial or
    process pool, per ``jobs``), ``"cluster"`` (socket broker + workers,
    see :mod:`repro.cluster`), or ``None`` to defer to ``REPRO_BACKEND``.
    ``broker`` is the cluster listen address (``host:port`` /
    ``unix:/path``), ``cluster_workers`` auto-spawns that many co-located
    worker processes, and ``spool_dir`` names a columnar trace spool
    workers mmap instead of regenerating (see
    :mod:`repro.workloads.spool`).  None of these execution knobs affects
    simulation *results*, so all are excluded from the cache fingerprint.

    ``workload_dir`` roots the ingested-workload catalog for ``ingest:``
    mixes (``None`` defers to ``REPRO_WORKLOAD_DIR``).  The *directory*
    is an execution knob and is normalised out like the others — but the
    catalogued trace **digests** the mixes resolve to are result-affecting
    and fold into :func:`harness_fingerprint`, so re-ingested content
    lands in a fresh cache namespace wherever the catalog lives.
    """

    sim_cycles: int = 25_000
    entries_per_core: int = 8_000
    attacker_entries: int = 12_000
    nrh_default: int = 1024
    nrh_low: int = 64
    nrh_sweep: Tuple[int, ...] = (4096, 2048, 1024, 512, 256, 128, 64)
    attack_mixes: Tuple[str, ...] = tuple(ATTACK_MIXES)
    benign_mixes: Tuple[str, ...] = tuple(BENIGN_MIXES)
    mechanisms: Tuple[str, ...] = tuple(PAIRED_MECHANISMS)
    seeds: Tuple[int, ...] = (0,)
    threat_threshold: float = 4.0
    outlier_threshold: float = 0.65
    engine: str = "fast"
    jobs: int = 0
    cache_dir: Optional[str] = None
    backend: Optional[str] = None
    broker: Optional[str] = None
    cluster_workers: int = 0
    spool_dir: Optional[str] = None
    workload_dir: Optional[str] = None

    def simulation_config(self) -> SimulationConfig:
        """The per-run simulation bounds this harness profile implies."""

        return SimulationConfig(max_cycles=self.sim_cycles, engine=self.engine)

    def result_fingerprint(self) -> str:
        """Digest of every field that can affect simulation results.

        Execution knobs (``jobs``, ``cache_dir``, ``backend``/``broker``/
        ``cluster_workers``, ``spool_dir``) are normalised out: a sweep
        must hit the same disk-cache namespace no matter how — or where —
        it is executed.
        """

        return config_fingerprint(
            dataclasses.replace(self, jobs=0, cache_dir=None, backend=None,
                                broker=None, cluster_workers=0,
                                spool_dir=None, workload_dir=None)
        )

    @classmethod
    def fast(cls) -> "HarnessConfig":
        """A profile small enough for CI and the pytest benchmarks."""

        return cls(
            sim_cycles=12_000,
            entries_per_core=4_000,
            attacker_entries=6_000,
            nrh_sweep=(4096, 1024, 256, 64),
            attack_mixes=("HHMA", "MMLA"),
            benign_mixes=("HHMM", "MMLL"),
            mechanisms=tuple(PAIRED_MECHANISMS),
            seeds=(0,),
        )

    @classmethod
    def smoke(cls) -> "HarnessConfig":
        """The smallest useful profile (unit/integration tests)."""

        return cls(
            sim_cycles=6_000,
            entries_per_core=2_000,
            attacker_entries=3_000,
            nrh_sweep=(1024, 64),
            attack_mixes=("MMLA",),
            benign_mixes=("MMLL",),
            mechanisms=("para", "graphene", "rfm"),
            seeds=(0,),
        )

    # ------------------------------------------------------------------ #
    # Bridge to the declarative repro.api surface.
    # ------------------------------------------------------------------ #
    @classmethod
    def from_spec(cls, spec, jobs: int = 0,
                  cache_dir: Optional[str] = None,
                  backend: Optional[str] = None,
                  broker: Optional[str] = None,
                  cluster_workers: int = 0,
                  spool_dir: Optional[str] = None,
                  workload_dir: Optional[str] = None) -> "HarnessConfig":
        """The harness profile an :class:`repro.api.ExperimentSpec` implies.

        The spec must carry a resolved engine (sessions resolve it through
        ``repro.api.session.resolve_execution`` before building runners).
        """

        if spec.engine is None:
            raise ValueError(
                "spec.engine is unresolved; resolve it (Session does this) "
                "before building a HarnessConfig"
            )
        return cls(
            sim_cycles=spec.sim_cycles,
            entries_per_core=spec.entries_per_core,
            attacker_entries=spec.attacker_entries,
            nrh_default=spec.nrh_default,
            nrh_low=spec.nrh_low,
            nrh_sweep=tuple(spec.nrh_sweep),
            attack_mixes=tuple(spec.attack_mixes),
            benign_mixes=tuple(spec.benign_mixes),
            mechanisms=tuple(spec.mechanisms),
            seeds=tuple(spec.seeds),
            threat_threshold=spec.threat_threshold,
            outlier_threshold=spec.outlier_threshold,
            engine=spec.engine,
            jobs=jobs,
            cache_dir=cache_dir,
            backend=backend,
            broker=broker,
            cluster_workers=cluster_workers,
            spool_dir=spool_dir,
            workload_dir=workload_dir,
        )

    def to_spec(self):
        """The :class:`repro.api.ExperimentSpec` equivalent of this profile.

        Execution knobs (``jobs``, ``cache_dir``) are dropped: they belong
        to :class:`repro.api.Session`, not to the result description.
        """

        from repro.api.spec import ExperimentSpec

        return ExperimentSpec(
            sim_cycles=self.sim_cycles,
            entries_per_core=self.entries_per_core,
            attacker_entries=self.attacker_entries,
            nrh_default=self.nrh_default,
            nrh_low=self.nrh_low,
            nrh_sweep=self.nrh_sweep,
            attack_mixes=self.attack_mixes,
            benign_mixes=self.benign_mixes,
            mechanisms=self.mechanisms,
            seeds=self.seeds,
            threat_threshold=self.threat_threshold,
            outlier_threshold=self.outlier_threshold,
            engine=self.engine,
        )


#: The grid coordinate of one run: (mix, seed, mechanism, nrh, breakhammer).
GridPoint = Tuple[str, int, str, int, bool]

#: The full memoisation key: the grid coordinate extended with the trace
#: generation parameters and simulation bounds, so two distinct
#: configurations can never alias one cache entry (in memory or on disk).
RunKey = Tuple[str, int, str, int, bool, int, int, int, str]

#: A (mix_name, mechanism, nrh, breakhammer) request, as the figure methods
#: hand them to :meth:`ExperimentRunner.prefetch` one seed at a time — the
#: plan's seed axis multiplies the same request list across its seeds.
RunSpec = Tuple[str, str, int, bool]

#: Every figure/headline artefact with a declarative sweep plan, mapped to
#: the runner method that aggregates it.  ``repro.api.Session`` and the
#: ``python -m repro.api run`` CLI drive figures through this registry.
FIGURES: Dict[str, str] = {
    "fig2": "figure2",
    "fig5": "figure5",
    "fig6": "figure6",
    "fig7": "figure7",
    "fig8": "figure8",
    "fig9": "figure9",
    "fig10": "figure10",
    "fig11": "figure11",
    "fig12": "figure12",
    "fig13": "figure13",
    "fig14": "figure14",
    "fig15": "figure15",
    "fig16": "figure16",
    "fig17": "figure17",
    "fig18": "figure18",
    "fig19": "figure19",
}

#: Table artefacts (no sweep plans; aggregation only).
TABLES: Dict[str, str] = {
    "table1": "table1",
    "table2": "table2",
    "table3": "table3",
    "table3_paper": "paper_table3",
    "hw": "hardware_complexity",
}

#: The one deprecation message of the legacy facade (pytest.ini filters it
#: in tier-1; user code migrates to repro.api per the ROADMAP timeline).
_DEPRECATION_MESSAGE = (
    "ExperimentRunner/HarnessConfig are deprecated as a public entry point; "
    "describe sweeps with repro.api.ExperimentSpec and execute them through "
    "repro.api.Session (see ROADMAP.md 'Running sweeps')"
)


def catalog_digests(config: HarnessConfig) -> Tuple[Tuple[str, str], ...]:
    """``(name, trace_digest)`` pairs of the ``ingest:`` mixes of ``config``.

    Empty when no mix addresses the workload catalog.  Raises when mixes
    do but no catalog is configured (``workload_dir`` /
    ``REPRO_WORKLOAD_DIR``) — a runner must never fingerprint without the
    content it will simulate.
    """

    from repro.workloads.ingest.catalog import (
        WorkloadCatalog,
        is_catalog_mix,
        parse_catalog_mix,
    )

    names = [parse_catalog_mix(mix)[0]
             for mix in (*config.attack_mixes, *config.benign_mixes)
             if is_catalog_mix(mix)]
    if not names:
        return ()
    catalog = WorkloadCatalog.resolve(config.workload_dir)
    if catalog is None:
        raise ValueError(
            "config references ingested workloads but no catalog is "
            "configured (workload_dir / REPRO_WORKLOAD_DIR)"
        )
    return catalog.digests(names)


def harness_fingerprint(config: HarnessConfig) -> str:
    """The cache-namespace fingerprint a harness configuration implies.

    Digests the result-affecting harness fields, the derived base
    :class:`SystemConfig`, and the per-run :class:`SimulationConfig` —
    exactly what :class:`ExperimentRunner` computes for its run cache, and
    what the :mod:`repro.cluster` broker stamps on every unit of work so a
    worker built from a different spec can never contribute a result.

    When the config's mixes reference ingested workloads, the catalog
    trace digests fold in too (:func:`catalog_digests`): a re-ingested
    trace moves the namespace, so stale cache entries are unreachable,
    and a cluster worker whose catalog holds different content computes a
    different fingerprint and is refused by the broker.
    """

    base_system = SystemConfig.fast_profile(
        sim_cycles=config.sim_cycles,
        threat_threshold=config.threat_threshold,
        outlier_threshold=config.outlier_threshold,
    )
    digests = catalog_digests(config)
    if digests:
        return config_fingerprint(
            config.result_fingerprint(), base_system,
            config.simulation_config(), ("workload-catalog", digests),
        )
    return config_fingerprint(
        config.result_fingerprint(), base_system,
        config.simulation_config(),
    )


class ExperimentRunner:
    """Runs and memoises the simulations behind every figure.

    Three cache layers back :meth:`run`:

    1. in-memory memoisation (``_run_cache``), as before;
    2. an optional persistent on-disk :class:`RunCache`, keyed by the full
       :data:`RunKey` under a configuration-fingerprint namespace, shared
       across processes and invocations;
    3. a pluggable :class:`SweepExecutor` that the figure methods use (via
       :meth:`prefetch`) to compute the missing portion of their run grid —
       serially, or sharded across worker processes when
       ``HarnessConfig.jobs`` / ``REPRO_JOBS`` asks for more than one.
    """

    def __init__(self, config: Optional[HarnessConfig] = None, *,
                 _api_owned: bool = False) -> None:
        if not _api_owned:
            # The deprecation clock of the legacy facade (ROADMAP timeline):
            # internal owners — Session, the sweep/cluster workers — pass
            # _api_owned, so only *direct* construction warns.
            warnings.warn(_DEPRECATION_MESSAGE, DeprecationWarning,
                          stacklevel=2)
        self.config = config or HarnessConfig()
        self._mix_cache: Dict[Tuple[str, int, int, int], WorkloadMix] = {}
        self._run_cache: Dict[RunKey, RunStatistics] = {}
        self._alone_ipc_cache: Dict[Tuple[str, int], float] = {}
        self._base_system = SystemConfig.fast_profile(
            sim_cycles=self.config.sim_cycles,
            threat_threshold=self.config.threat_threshold,
            outlier_threshold=self.config.outlier_threshold,
        )
        self.fingerprint = harness_fingerprint(self.config)
        # The catalog content this runner was fingerprinted against: the
        # mix loader warns if an ingested workload is re-ingested behind
        # a live session (see WorkloadCatalog / catalog_mix).
        self._ingest_digests: Dict[str, str] = dict(
            catalog_digests(self.config)
        )
        self._disk_cache: Optional[RunCache] = RunCache.from_env(
            self.fingerprint, cache_dir=self.config.cache_dir
        )
        self._executor: SweepExecutor = make_executor(self)
        self.runs_executed = 0
        # In-flight futures of the streaming path, for cross-plan dedup:
        # one handle per RunKey / per (trace_name, length) alone key.
        self._inflight_runs: Dict[RunKey, RunHandle] = {}
        self._inflight_alone: Dict[Tuple[str, int], RunHandle] = {}

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def jobs(self) -> int:
        """The effective sweep worker count (1 = serial)."""

        return self._executor.jobs

    @property
    def disk_cache(self) -> Optional[RunCache]:
        return self._disk_cache

    def close(self) -> None:
        """Shut down the sweep executor's worker pool, if any."""

        self._executor.close()

    def __enter__(self) -> "ExperimentRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Building blocks
    # ------------------------------------------------------------------ #
    def system_config(self, mechanism: str, nrh: int,
                      breakhammer: bool) -> SystemConfig:
        return self._base_system.with_(
            mitigation=mechanism,
            nrh=nrh,
            breakhammer_enabled=breakhammer,
        )

    def mix(self, name: str, seed: int = 0) -> WorkloadMix:
        # The trace sizes are part of the key: a runner reconfigured for a
        # different scale must never alias another profile's traces.
        key = (name, seed, self.config.entries_per_core,
               self.config.attacker_entries)
        if key not in self._mix_cache:
            # A reachable columnar spool (materialised once by the session
            # that owns this spec) is mmap'd instead of regenerated, so
            # co-located sweep workers share one physical copy of every
            # trace through the page cache; the manifest pins scale, seed
            # *and* this runner's fingerprint, and any mismatch or damage
            # falls back to deterministic regeneration — the traces are
            # byte-identical either way.
            mix = self._spool_mix(name, seed)
            if mix is None:
                mix = self._catalog_mix(name)
            if mix is None:
                mix = make_mix(
                    name,
                    device=self._base_system.device,
                    mapping=self._base_system.mapping,
                    entries_per_core=self.config.entries_per_core,
                    attacker_entries=self.config.attacker_entries,
                    seed=seed,
                    attacker_config=AttackerConfig(
                        entries=self.config.attacker_entries, seed=seed
                    ),
                )
            self._mix_cache[key] = mix
        return self._mix_cache[key]

    def _catalog_mix(self, name: str) -> Optional[WorkloadMix]:
        """Load an ``ingest:`` mix from the workload catalog.

        Returns ``None`` for ordinary letter mixes.  The digest captured
        at fingerprint time rides along, so content re-ingested behind a
        live runner falls back to the current catalog bytes *with a
        warning* instead of silently mixing trace versions in one cache
        namespace.
        """

        from repro.workloads.ingest.catalog import (
            catalog_mix,
            is_catalog_mix,
            parse_catalog_mix,
        )

        if not is_catalog_mix(name):
            return None
        workload_name = parse_catalog_mix(name)[0]
        return catalog_mix(
            name,
            directory=self.config.workload_dir,
            expected_digest=self._ingest_digests.get(workload_name),
        )

    def _spool_mix(self, name: str, seed: int) -> Optional[WorkloadMix]:
        if not self.config.spool_dir:
            return None
        from repro.workloads.spool import TraceSpool

        return TraceSpool(self.config.spool_dir).load_mix(
            name, seed,
            entries_per_core=self.config.entries_per_core,
            attacker_entries=self.config.attacker_entries,
            fingerprint=self.fingerprint,
        )

    def run_key(self, mix_name: str, mechanism: str, nrh: int,
                breakhammer: bool, seed: int = 0) -> RunKey:
        """The full memoisation key of one run.

        Beyond the grid coordinate it pins the trace generation parameters
        (entry counts; the seed is already a coordinate) and the simulation
        bounds (cycle budget, engine), so distinct configurations cannot
        alias — in particular in the on-disk cache, which outlives any one
        runner.
        """

        return (mix_name, seed, mechanism, nrh, breakhammer,
                self.config.entries_per_core, self.config.attacker_entries,
                self.config.sim_cycles, self.config.engine)

    def _cached_stats(self, key: RunKey) -> Optional[RunStatistics]:
        """Memory-then-disk cache lookup; disk hits populate memory."""

        stats = self._run_cache.get(key)
        if stats is not None:
            return stats
        if self._disk_cache is not None:
            stats = self._disk_cache.get(key)
            if stats is not None:
                self._run_cache[key] = stats
                return stats
        return None

    def _store_stats(self, key: RunKey, stats: RunStatistics) -> None:
        self._run_cache[key] = stats
        if self._disk_cache is not None:
            self._disk_cache.put(key, stats)

    def run(self, mix_name: str, mechanism: str, nrh: int,
            breakhammer: bool, seed: int = 0) -> RunStatistics:
        """Run (or fetch from cache) one simulation."""

        key = self.run_key(mix_name, mechanism, nrh, breakhammer, seed)
        stats = self._cached_stats(key)
        if stats is not None:
            return stats
        mix = self.mix(mix_name, seed)
        simulator = Simulator(
            self.system_config(mechanism, nrh, breakhammer),
            mix.traces,
            self.config.simulation_config(),
            attacker_threads=mix.attacker_threads,
        )
        result = simulator.run()
        self.runs_executed += 1
        self._store_stats(key, result.stats)
        return result.stats

    def _alone_disk_key(self, trace: Trace) -> RunKey:
        """Disk-cache key of one standalone-IPC baseline run.

        The baseline is persisted like any grid point — ``"alone"`` takes
        the mechanism slot (not a registry name, so it cannot collide with
        real runs) — letting repeat invocations with a disk cache skip the
        per-trace baseline simulations too.
        """

        return (trace.name, len(trace), "alone", 0, False,
                self.config.entries_per_core, self.config.attacker_entries,
                self.config.sim_cycles, self.config.engine)

    def _cached_alone_ipc(self, trace: Trace) -> Optional[float]:
        """Memory-then-disk lookup of one standalone-IPC baseline."""

        key = (trace.name, len(trace))
        ipc = self._alone_ipc_cache.get(key)
        if ipc is not None:
            return ipc
        if self._disk_cache is not None:
            stats = self._disk_cache.get(self._alone_disk_key(trace))
            if stats is not None:
                ipc = max(1e-6, stats.ipc_of(0))
                self._alone_ipc_cache[key] = ipc
                return ipc
        return None

    def alone_baseline(self, trace: Trace) -> RunStatistics:
        """The full statistics of one trace's standalone baseline run.

        Simulates (or loads from the disk cache) the single-core,
        no-mitigation run :meth:`alone_ipc` derives its IPC from.  Cluster
        workers return these statistics whole so the broker can persist
        them through the shared run cache.
        """

        key = self._alone_disk_key(trace)
        if self._disk_cache is not None:
            stats = self._disk_cache.get(key)
            if stats is not None:
                return stats
        config = self._base_system.with_(
            num_cores=1, mitigation="none", breakhammer_enabled=False
        )
        simulator = Simulator(config, [trace],
                              self.config.simulation_config())
        stats = simulator.run().stats
        if self._disk_cache is not None:
            self._disk_cache.put(key, stats)
        return stats

    def alone_ipc(self, trace: Trace) -> float:
        """Standalone IPC of one trace on a single-core, no-mitigation system."""

        cached = self._cached_alone_ipc(trace)
        if cached is not None:
            return cached
        ipc = max(1e-6, self.alone_baseline(trace).ipc_of(0))
        self._alone_ipc_cache[(trace.name, len(trace))] = ipc
        return ipc

    # ------------------------------------------------------------------ #
    # Parallel sweep execution
    # ------------------------------------------------------------------ #
    def prefetch(self, runs: Sequence[RunSpec] = (),
                 alone_mixes: Sequence[str] = (), seed: int = 0) -> int:
        """Compute the missing portion of a run grid through the executor.

        ``runs`` lists (mix, mechanism, nrh, breakhammer) grid points and
        ``alone_mixes`` names mixes whose per-trace standalone-IPC
        baselines are needed.  Points already memoised (in memory or on
        disk) are skipped; the rest are executed — in worker processes when
        a parallel executor is configured — and merged into this runner's
        caches, so the figure code that follows hits warm caches only.
        Returns the number of grid points (and baselines) actually
        executed.
        """

        tasks: List[RunTask] = []
        seen_keys = set()
        for mix_name, mechanism, nrh, breakhammer in runs:
            key = self.run_key(mix_name, mechanism, nrh, breakhammer, seed)
            if key in seen_keys or self._cached_stats(key) is not None:
                continue
            seen_keys.add(key)
            tasks.append(RunTask(
                kind=TASK_RUN, mix_name=mix_name, seed=seed,
                mechanism=mechanism, nrh=nrh, breakhammer=breakhammer,
            ))
        seen_alone = set()
        for mix_name in dict.fromkeys(alone_mixes):
            mix = self.mix(mix_name, seed)
            for index, trace in enumerate(mix.traces):
                alone_key = (trace.name, len(trace))
                # Dedup within the batch too: mixes share traces (every
                # attack mix carries the identical attacker trace).
                if alone_key in seen_alone \
                        or self._cached_alone_ipc(trace) is not None:
                    continue
                seen_alone.add(alone_key)
                tasks.append(RunTask(kind=TASK_ALONE, mix_name=mix_name,
                                     seed=seed, trace_index=index))
        if not tasks:
            return 0
        if isinstance(self._executor, SerialSweepExecutor):
            # The serial path just runs through the ordinary entry points
            # (which memoise and count as they go).
            self._executor.execute(tasks)
            return len(tasks)
        results = self._executor.execute(tasks)
        for task, outcome in zip(tasks, results):
            if task.kind == TASK_ALONE:
                alone: AloneResult = outcome
                self._alone_ipc_cache[
                    (alone.trace_name, alone.trace_length)
                ] = alone.ipc
                continue
            # Memory only: the worker's own runner shares this cache
            # configuration and already persisted the entry to disk.
            key = self.run_key(task.mix_name, task.mechanism, task.nrh,
                               task.breakhammer, task.seed)
            self._run_cache[key] = outcome
            self.runs_executed += 1
        return len(tasks)

    # ------------------------------------------------------------------ #
    # Streaming (futures) sweep execution
    # ------------------------------------------------------------------ #
    def submit_prefetch(self, runs: Sequence[RunSpec] = (),
                        alone_mixes: Sequence[str] = (),
                        seed: int = 0) -> List[RunHandle]:
        """The futures twin of :meth:`prefetch`.

        Returns one :class:`RunHandle` per *distinct* requested point —
        grid runs first (request order), then the per-trace standalone-IPC
        baselines of ``alone_mixes``, sharded across the same pool.
        Already-cached points yield handles born completed; points already
        in flight (submitted by an earlier plan of this runner) are
        reused, so overlapping figure grids never execute a point twice.
        Consuming a handle's ``result()`` merges the outcome into this
        runner's caches; aggregation can therefore start as soon as the
        first handle completes instead of after a batch barrier.
        """

        handles: List[RunHandle] = []
        seen = set()
        for mix_name, mechanism, nrh, breakhammer in runs:
            key = self.run_key(mix_name, mechanism, nrh, breakhammer, seed)
            if key in seen:
                continue
            seen.add(key)
            handle = self._inflight_runs.get(key)
            if handle is None:
                cached = self._cached_stats(key)
                if cached is not None:
                    handle = RunHandle.completed(key, cached)
                else:
                    task = RunTask(
                        kind=TASK_RUN, mix_name=mix_name, seed=seed,
                        mechanism=mechanism, nrh=nrh, breakhammer=breakhammer,
                    )
                    handle = RunHandle(
                        task, key, self._executor.submit(task),
                        merge=self._merge_run_outcome(key),
                    )
                self._inflight_runs[key] = handle
            handles.append(handle)
        seen_alone = set()
        for mix_name in dict.fromkeys(alone_mixes):
            mix = self.mix(mix_name, seed)
            for index, trace in enumerate(mix.traces):
                alone_key = (trace.name, len(trace))
                if alone_key in seen_alone:
                    continue
                seen_alone.add(alone_key)
                handle = self._inflight_alone.get(alone_key)
                if handle is None:
                    ipc = self._cached_alone_ipc(trace)
                    if ipc is not None:
                        handle = RunHandle.completed(
                            alone_key,
                            AloneResult(trace.name, len(trace), ipc),
                        )
                    else:
                        task = RunTask(kind=TASK_ALONE, mix_name=mix_name,
                                       seed=seed, trace_index=index)
                        handle = RunHandle(
                            task, alone_key, self._executor.submit(task),
                            merge=self._merge_alone_outcome,
                        )
                    self._inflight_alone[alone_key] = handle
                handles.append(handle)
        return handles

    def _merge_run_outcome(self, key: RunKey):
        serial = isinstance(self._executor, SerialSweepExecutor)

        def merge(stats: RunStatistics) -> None:
            # Serial handles ran through `run`, which memoised, persisted,
            # and counted already; pool outcomes merge memory-only (the
            # worker's own runner shares the disk-cache configuration and
            # already persisted the entry).
            if not serial:
                self._run_cache[key] = stats
                self.runs_executed += 1

        return merge

    def _merge_alone_outcome(self, alone: AloneResult) -> None:
        self._alone_ipc_cache[(alone.trace_name, alone.trace_length)] = \
            alone.ipc

    def submit_plan(self, plan: SweepPlan) -> List[RunHandle]:
        """Submit a figure's declarative sweep plan; see :meth:`figure_plan`.

        The grid (alone baselines included) is submitted once per seed of
        the plan's seed axis; handles of all seeds share one pool.
        """

        handles: List[RunHandle] = []
        for seed in plan.seeds:
            handles.extend(self.submit_prefetch(
                plan.runs, alone_mixes=plan.alone_mixes, seed=seed
            ))
        return handles

    # ------------------------------------------------------------------ #
    # Declarative figure sweep plans
    # ------------------------------------------------------------------ #
    def figure_plan(self, figure_id: str, **kwargs) -> SweepPlan:
        """The declarative sweep plan behind one figure.

        Each ``figureN`` method executes exactly the plan this returns (the
        grid is defined once), so a session that streams the plan's
        handles and then aggregates sees bit-identical results to the
        legacy batch path.  Figures without a sweep (fig5's analytical
        bound, fig19's bespoke threshold sweep) return an empty plan.
        """

        if figure_id == "headline":
            return self.headline_plan(**kwargs)
        if figure_id not in FIGURES:
            raise ValueError(
                f"unknown figure {figure_id!r}; one of {sorted(FIGURES)}"
            )
        builder = getattr(self, f"_plan_{figure_id}", None)
        if builder is None:
            return SweepPlan(figure_id=figure_id, meta=dict(kwargs))
        return builder(**kwargs)

    def _execute_plan(self, plan: SweepPlan) -> int:
        """Batch-execute a plan through :meth:`prefetch` (legacy path)."""

        if plan.empty:
            return 0
        executed = 0
        for seed in plan.seeds:
            executed += self.prefetch(plan.runs,
                                      alone_mixes=plan.alone_mixes, seed=seed)
        return executed

    def _grid_plan(self, figure_id: str,
                   mixes: Sequence[str],
                   mechanisms: Sequence[str],
                   nrh_values: Sequence[int],
                   breakhammer_values: Sequence[bool],
                   baseline: bool = False,
                   alone: bool = True,
                   extra_runs: Sequence[RunSpec] = (),
                   meta: Optional[Dict[str, object]] = None) -> SweepPlan:
        """The cartesian grid plan common to the figure methods.

        ``baseline`` adds the per-mix no-mitigation reference run at the
        default N_RH; ``alone`` adds the standalone-IPC baselines of every
        trace in the mixes; ``extra_runs`` are off-grid points batched into
        the same dispatch (a second prefetch call would serialise them
        behind the grid's barrier).
        """

        runs: List[RunSpec] = list(extra_runs)
        if baseline:
            runs.extend(
                (mix, "none", self.config.nrh_default, False) for mix in mixes
            )
        runs.extend(
            (mix, mechanism, nrh, breakhammer)
            for mechanism in mechanisms
            for nrh in nrh_values
            for breakhammer in breakhammer_values
            for mix in mixes
        )
        return SweepPlan(
            figure_id=figure_id,
            runs=tuple(runs),
            alone_mixes=tuple(mixes) if alone else (),
            seeds=tuple(self.config.seeds),
            meta=meta or {},
        )

    # ------------------------------------------------------------------ #
    # Per-seed figure frames and the seed-axis aggregation
    # ------------------------------------------------------------------ #
    #: figure_id -> the method that builds one per-seed frame of it.  Every
    #: plan-backed figure appears here; fig5 (analytical) and fig19 (bespoke
    #: threshold sweep) have no seed axis and no frame builder.
    _FRAME_BUILDERS: Dict[str, str] = {
        "fig2": "_frame_fig2",
        "fig6": "_frame_per_mix",
        "fig7": "_frame_per_mix",
        "fig8": "_frame_nrh_scaling",
        "fig9": "_frame_nrh_scaling",
        "fig10": "_frame_fig10",
        "fig11": "_frame_latency",
        "fig12": "_frame_fig12",
        "fig13": "_frame_per_mix",
        "fig14": "_frame_per_mix",
        "fig15": "_frame_benign_scaling",
        "fig16": "_frame_benign_scaling",
        "fig17": "_frame_latency",
        "fig18": "_frame_fig18",
    }

    def figure_frame(self, plan: SweepPlan, seed: int) -> FigureData:
        """Aggregate one *seed's* frame of a figure from warm caches.

        The plan's runs (for this seed) must already be computed — the
        batch path executes the plan first, the streaming/adaptive paths
        consume the plan's handles first.  Frames of all seeds share one
        structure, so :func:`repro.analysis.aggregate.aggregate_figures`
        can fold them into the published mean ± CI figure.
        """

        builder = self._FRAME_BUILDERS.get(plan.figure_id)
        if builder is None:
            raise ValueError(
                f"figure {plan.figure_id!r} has no per-seed frame builder"
            )
        return getattr(self, builder)(plan, seed)

    def _figure_from_plan(self, plan: SweepPlan) -> FigureData:
        """Batch-execute a plan and fold its per-seed frames (legacy path)."""

        self._execute_plan(plan)
        return aggregate_figures(
            [self.figure_frame(plan, seed) for seed in plan.seeds]
        )

    @staticmethod
    def _want(only: Optional[Sequence[str]], label: str) -> bool:
        """Does a frame build ``label``?  ``only`` is the escalation filter.

        Full-figure plans carry no ``meta["series"]`` filter (``only is
        None``): every series is built.  Adaptive escalation plans narrow
        the frame to the series that still have wide-CI cells.
        """

        return only is None or label in only

    @staticmethod
    def _label_mechanism(label: str) -> Tuple[str, bool]:
        """Invert a series label back to its (mechanism, breakhammer) pair."""

        if label == "no_defense":
            return ("none", False)
        if label.endswith("+BH"):
            return (label[: -len("+BH")], True)
        return (label, False)

    def escalation_plan(self, plan: SweepPlan,
                        cells: Sequence[Tuple[str, object]]) -> SweepPlan:
        """The narrowed plan one adaptive escalation round executes.

        ``cells`` lists (series label, x value) coordinates of ``plan``'s
        figure whose CI is still wider than the campaign target.  The
        returned plan covers exactly the runs those cells' frame values
        depend on — other series are dropped via ``meta["series"]`` and,
        where the x axis maps one-to-one onto grid runs, the x dimension is
        narrowed too.  Cells that aggregate *across* a dimension (geomean
        over mixes, a latency curve over one run set) keep that dimension
        whole, so escalated frame cells equal what a full frame at the same
        seed would hold.
        """

        if plan.figure_id not in self._FRAME_BUILDERS:
            raise ValueError(
                f"figure {plan.figure_id!r} has no seed axis to escalate"
            )
        labels = list(dict.fromkeys(label for label, _ in cells))
        wide_x = {x for _, x in cells}
        meta = dict(plan.meta)
        meta["series"] = labels
        runs: List[RunSpec] = []
        if plan.figure_id in self._PER_MIX_FIGURES:
            # x axis = mixes + ["geomean"]; a wide geomean needs every mix.
            mixes = list(plan.meta["mixes"])
            if "geomean" not in wide_x:
                mixes = [mix for mix in mixes if mix in wide_x]
            meta["mixes"] = mixes
            nrh = plan.meta["nrh"]
            for label in labels:
                mechanism, _ = self._label_mechanism(label)
                for mix in mixes:
                    runs.append((mix, mechanism, nrh, False))
                    runs.append((mix, mechanism, nrh, True))
            alone_mixes: Tuple[str, ...] = tuple(mixes)
        elif plan.figure_id in ("fig11", "fig17"):
            # x axis = percentile points of one curve: any wide point needs
            # the whole curve's run set, so only the series narrow.
            nrh = plan.meta["nrh"]
            mixes = plan.meta["mixes"]
            for label in labels:
                mechanism, breakhammer = self._label_mechanism(label)
                runs.extend((mix, mechanism, nrh, breakhammer)
                            for mix in mixes)
            alone_mixes = ()
        else:
            # N_RH-sweep family: the x axis maps one-to-one onto grid runs.
            sweep = [nrh for nrh in plan.meta["sweep"] if nrh in wide_x]
            meta["sweep"] = sweep
            mixes = plan.meta["mixes"]
            if plan.figure_id in ("fig2", "fig8", "fig9", "fig12", "fig18"):
                runs.extend((mix, "none", self.config.nrh_default, False)
                            for mix in mixes)
            for label in labels:
                mechanism, breakhammer = self._label_mechanism(label)
                if plan.figure_id in ("fig15", "fig16"):
                    # Normalised to the mechanism alone: both runs needed.
                    bh_values: Tuple[bool, ...] = (False, True)
                elif plan.figure_id == "fig10":
                    # Normalised to the mechanism's count at the reference
                    # N_RH, which the narrowed sweep may no longer contain.
                    reference_nrh = plan.meta.get(
                        "reference_nrh", plan.meta["sweep"][0]
                    )
                    runs.extend((mix, mechanism, reference_nrh, False)
                                for mix in mixes)
                    bh_values = (breakhammer,)
                else:
                    bh_values = (breakhammer,)
                runs.extend(
                    (mix, mechanism, nrh, flag)
                    for nrh in sweep
                    for flag in bh_values
                    for mix in mixes
                )
            alone_mixes = plan.alone_mixes
        return SweepPlan(
            figure_id=plan.figure_id,
            runs=tuple(runs),
            alone_mixes=alone_mixes,
            seeds=plan.seeds,
            meta=meta,
        )

    # ------------------------------------------------------------------ #
    # Metrics over runs
    # ------------------------------------------------------------------ #
    def _alone_ipcs(self, mix: WorkloadMix) -> Dict[int, float]:
        return {
            idx: self.alone_ipc(trace) for idx, trace in enumerate(mix.traces)
        }

    def benign_weighted_speedup(self, stats: RunStatistics,
                                mix: WorkloadMix) -> float:
        alone = self._alone_ipcs(mix)
        return weighted_speedup(stats.ipc_by_thread, alone,
                                include=mix.benign_threads)

    def benign_max_slowdown(self, stats: RunStatistics,
                            mix: WorkloadMix) -> float:
        alone = self._alone_ipcs(mix)
        return max_slowdown(stats.ipc_by_thread, alone,
                            include=mix.benign_threads)

    def _ratio_series(self, values: Dict[str, float],
                      baselines: Dict[str, float]) -> List[float]:
        return [
            values[name] / max(1e-9, baselines[name]) for name in values
        ]

    # ------------------------------------------------------------------ #
    # Figure 2 — motivation: mitigation overhead vs N_RH (benign mixes)
    # ------------------------------------------------------------------ #
    def _plan_fig2(self, mechanisms: Optional[Sequence[str]] = None,
                   mixes: Optional[Sequence[str]] = None) -> SweepPlan:
        mechanisms = list(mechanisms or MOTIVATION_MECHANISMS)
        mixes = list(mixes or self.config.benign_mixes)
        sweep = list(self.config.nrh_sweep)
        return self._grid_plan(
            "fig2", mixes, mechanisms, sweep, (False,), baseline=True,
            meta=dict(mechanisms=mechanisms, mixes=mixes, sweep=sweep),
        )

    def figure2(self, mechanisms: Optional[Sequence[str]] = None,
                mixes: Optional[Sequence[str]] = None) -> FigureData:
        return self._figure_from_plan(self._plan_fig2(mechanisms, mixes))

    def _frame_fig2(self, plan: SweepPlan, seed: int) -> FigureData:
        mechanisms = plan.meta["mechanisms"]
        mixes = plan.meta["mixes"]
        sweep = plan.meta["sweep"]
        only = plan.meta.get("series")
        figure = FigureData(
            figure_id="fig2",
            title="System performance of RowHammer mitigations vs N_RH "
                  "(benign workloads, normalised to no mitigation)",
            x_label="nrh",
            y_label="normalized_weighted_speedup",
            x_values=sweep,
        )
        baseline_ws: Dict[str, float] = {}
        for mix_name in mixes:
            mix = self.mix(mix_name, seed)
            stats = self.run(mix_name, "none", self.config.nrh_default, False,
                             seed)
            baseline_ws[mix_name] = self.benign_weighted_speedup(stats, mix)
        for mechanism in mechanisms:
            if not self._want(only, mechanism):
                continue
            values = []
            for nrh in sweep:
                ratios = []
                for mix_name in mixes:
                    mix = self.mix(mix_name, seed)
                    stats = self.run(mix_name, mechanism, nrh, False, seed)
                    ws = self.benign_weighted_speedup(stats, mix)
                    ratios.append(ws / max(1e-9, baseline_ws[mix_name]))
                values.append(geometric_mean(ratios))
            figure.add_series(mechanism, values)
        return figure

    # ------------------------------------------------------------------ #
    # Figure 5 — analytical security bound
    # ------------------------------------------------------------------ #
    def figure5(self, attacker_percentages: Sequence[int] = tuple(range(0, 101, 10)),
                cap: float = 10.0) -> FigureData:
        analysis = SecurityAnalysis()
        figure = FigureData(
            figure_id="fig5",
            title="Maximum undetected attacker score vs attacker-thread share",
            x_label="attacker_thread_percentage",
            y_label="max_attacker_score_over_benign_avg",
            x_values=list(attacker_percentages),
        )
        for th, values in analysis.figure5(attacker_percentages, cap).items():
            figure.add_series(f"TH_outlier={th:.2f}", values)
        return figure

    # ------------------------------------------------------------------ #
    # Figures 6/7 — per-mix performance and unfairness under attack
    # ------------------------------------------------------------------ #
    def _per_mix_plan(self, figure_id: str, default_nrh: int,
                      default_mixes: Sequence[str],
                      nrh: Optional[int] = None,
                      mixes: Optional[Sequence[str]] = None,
                      mechanisms: Optional[Sequence[str]] = None) -> SweepPlan:
        nrh = nrh or default_nrh
        mixes = list(mixes or default_mixes)
        mechanisms = list(mechanisms or self.config.mechanisms)
        return self._grid_plan(
            figure_id, mixes, mechanisms, (nrh,), (False, True),
            meta=dict(nrh=nrh, mixes=mixes, mechanisms=mechanisms),
        )

    #: figure_id -> (metric, title) of the per-mix BreakHammer-ratio family.
    _PER_MIX_FIGURES: Dict[str, Tuple[str, str]] = {
        "fig6": ("weighted_speedup",
                 "Benign weighted speedup with BreakHammer, normalised to "
                 "the mechanism alone"),
        "fig7": ("max_slowdown",
                 "Benign unfairness (max slowdown) with BreakHammer, "
                 "normalised to the mechanism alone"),
        "fig13": ("weighted_speedup",
                  "Benign-only weighted speedup with BreakHammer, "
                  "normalised to the mechanism alone"),
        "fig14": ("max_slowdown",
                  "Benign-only unfairness with BreakHammer, normalised "
                  "to the mechanism alone"),
    }

    def _frame_per_mix(self, plan: SweepPlan, seed: int) -> FigureData:
        metric, title = self._PER_MIX_FIGURES[plan.figure_id]
        nrh = plan.meta["nrh"]
        mixes = plan.meta["mixes"]
        mechanisms = plan.meta["mechanisms"]
        only = plan.meta.get("series")
        is_perf = metric == "weighted_speedup"
        figure = FigureData(
            figure_id=plan.figure_id,
            title=title,
            x_label="mix",
            y_label="normalized_" + metric,
            x_values=list(mixes) + ["geomean"],
        )
        for mechanism in mechanisms:
            if not self._want(only, f"{mechanism}+BH"):
                continue
            ratios = []
            for mix_name in mixes:
                mix = self.mix(mix_name, seed)
                base = self.run(mix_name, mechanism, nrh, False, seed)
                with_bh = self.run(mix_name, mechanism, nrh, True, seed)
                if is_perf:
                    value = self.benign_weighted_speedup(with_bh, mix)
                    baseline = self.benign_weighted_speedup(base, mix)
                else:
                    value = self.benign_max_slowdown(with_bh, mix)
                    baseline = self.benign_max_slowdown(base, mix)
                ratios.append(value / max(1e-9, baseline))
            ratios.append(geometric_mean([max(1e-9, r) for r in ratios]))
            figure.add_series(f"{mechanism}+BH", ratios)
        return figure

    def _plan_fig6(self, **kwargs) -> SweepPlan:
        return self._per_mix_plan("fig6", self.config.nrh_default,
                                  self.config.attack_mixes, **kwargs)

    def _plan_fig7(self, **kwargs) -> SweepPlan:
        return self._per_mix_plan("fig7", self.config.nrh_default,
                                  self.config.attack_mixes, **kwargs)

    def figure6(self, nrh: Optional[int] = None,
                mixes: Optional[Sequence[str]] = None,
                mechanisms: Optional[Sequence[str]] = None) -> FigureData:
        return self._figure_from_plan(
            self._plan_fig6(nrh=nrh, mixes=mixes, mechanisms=mechanisms)
        )

    def figure7(self, nrh: Optional[int] = None,
                mixes: Optional[Sequence[str]] = None,
                mechanisms: Optional[Sequence[str]] = None) -> FigureData:
        return self._figure_from_plan(
            self._plan_fig7(nrh=nrh, mixes=mixes, mechanisms=mechanisms)
        )

    # ------------------------------------------------------------------ #
    # Figures 8/9 — scaling with N_RH under attack
    # ------------------------------------------------------------------ #
    def _nrh_scaling_plan(self, figure_id: str,
                          include_baseline_series: bool,
                          mechanisms: Optional[Sequence[str]] = None,
                          mixes: Optional[Sequence[str]] = None) -> SweepPlan:
        mechanisms = list(mechanisms or self.config.mechanisms)
        mixes = list(mixes or self.config.attack_mixes)
        sweep = list(self.config.nrh_sweep)
        return self._grid_plan(
            figure_id, mixes, mechanisms, sweep,
            (False, True) if include_baseline_series else (True,),
            baseline=True,
            meta=dict(mechanisms=mechanisms, mixes=mixes, sweep=sweep,
                      include_baseline_series=include_baseline_series),
        )

    #: figure_id -> metric of the attacker-present N_RH-scaling family.
    _NRH_SCALING_METRICS: Dict[str, str] = {
        "fig8": "weighted_speedup",
        "fig9": "max_slowdown",
    }

    def _frame_nrh_scaling(self, plan: SweepPlan, seed: int) -> FigureData:
        metric = self._NRH_SCALING_METRICS[plan.figure_id]
        mechanisms = plan.meta["mechanisms"]
        mixes = plan.meta["mixes"]
        sweep = plan.meta["sweep"]
        include_baseline_series = plan.meta["include_baseline_series"]
        only = plan.meta.get("series")
        is_perf = metric == "weighted_speedup"
        figure = FigureData(
            figure_id=plan.figure_id,
            title=f"{metric} vs N_RH "
                  "(attacker present, "
                  "normalised to no mitigation)",
            x_label="nrh",
            y_label="normalized_" + metric,
            x_values=sweep,
        )
        # No-mitigation baseline per mix (independent of N_RH).
        baseline: Dict[str, float] = {}
        for mix_name in mixes:
            mix = self.mix(mix_name, seed)
            stats = self.run(mix_name, "none", self.config.nrh_default, False,
                             seed)
            baseline[mix_name] = (
                self.benign_weighted_speedup(stats, mix)
                if is_perf else self.benign_max_slowdown(stats, mix)
            )

        def series_for(mechanism: str, breakhammer: bool) -> List[float]:
            values = []
            for nrh in sweep:
                ratios = []
                for mix_name in mixes:
                    mix = self.mix(mix_name, seed)
                    stats = self.run(mix_name, mechanism, nrh, breakhammer,
                                     seed)
                    value = (
                        self.benign_weighted_speedup(stats, mix)
                        if is_perf else self.benign_max_slowdown(stats, mix)
                    )
                    ratios.append(value / max(1e-9, baseline[mix_name]))
                values.append(geometric_mean([max(1e-9, r) for r in ratios]))
            return values

        for mechanism in mechanisms:
            if include_baseline_series and self._want(only, mechanism):
                figure.add_series(mechanism, series_for(mechanism, False))
            if self._want(only, f"{mechanism}+BH"):
                figure.add_series(f"{mechanism}+BH",
                                  series_for(mechanism, True))
        return figure

    def _plan_fig8(self, **kwargs) -> SweepPlan:
        return self._nrh_scaling_plan("fig8", True, **kwargs)

    def _plan_fig9(self, **kwargs) -> SweepPlan:
        return self._nrh_scaling_plan("fig9", False, **kwargs)

    def figure8(self, mechanisms: Optional[Sequence[str]] = None,
                mixes: Optional[Sequence[str]] = None) -> FigureData:
        return self._figure_from_plan(
            self._plan_fig8(mechanisms=mechanisms, mixes=mixes)
        )

    def figure9(self, mechanisms: Optional[Sequence[str]] = None,
                mixes: Optional[Sequence[str]] = None) -> FigureData:
        return self._figure_from_plan(
            self._plan_fig9(mechanisms=mechanisms, mixes=mixes)
        )

    # ------------------------------------------------------------------ #
    # Figure 10 — preventive-action counts
    # ------------------------------------------------------------------ #
    def _plan_fig10(self, mechanisms: Optional[Sequence[str]] = None,
                    mixes: Optional[Sequence[str]] = None) -> SweepPlan:
        mechanisms = [
            m for m in (mechanisms or self.config.mechanisms) if m != "rega"
        ]
        mixes = list(mixes or self.config.attack_mixes)
        sweep = list(self.config.nrh_sweep)
        return self._grid_plan(
            "fig10", mixes, mechanisms, sweep, (False, True), alone=False,
            meta=dict(mechanisms=mechanisms, mixes=mixes, sweep=sweep,
                      reference_nrh=sweep[0]),
        )

    def figure10(self, mechanisms: Optional[Sequence[str]] = None,
                 mixes: Optional[Sequence[str]] = None) -> FigureData:
        return self._figure_from_plan(self._plan_fig10(mechanisms, mixes))

    def _frame_fig10(self, plan: SweepPlan, seed: int) -> FigureData:
        mechanisms = plan.meta["mechanisms"]
        mixes = plan.meta["mixes"]
        sweep = plan.meta["sweep"]
        reference_nrh = plan.meta.get("reference_nrh", sweep[0])
        only = plan.meta.get("series")
        figure = FigureData(
            figure_id="fig10",
            title="RowHammer-preventive actions vs N_RH (attacker present, "
                  "normalised to the mechanism alone at the largest N_RH)",
            x_label="nrh",
            y_label="normalized_preventive_actions",
            x_values=sweep,
        )

        def mean_actions(mechanism: str, nrh: int, bh: bool) -> float:
            counts = []
            for mix_name in mixes:
                stats = self.run(mix_name, mechanism, nrh, bh, seed)
                counts.append(stats.preventive_actions)
            return sum(counts) / len(counts)

        for mechanism in mechanisms:
            want_base = self._want(only, mechanism)
            want_bh = self._want(only, f"{mechanism}+BH")
            if not (want_base or want_bh):
                continue
            reference = max(1.0, mean_actions(mechanism, reference_nrh, False))
            if want_base:
                figure.add_series(mechanism, [
                    mean_actions(mechanism, nrh, False) / reference
                    for nrh in sweep
                ])
            if want_bh:
                figure.add_series(f"{mechanism}+BH", [
                    mean_actions(mechanism, nrh, True) / reference
                    for nrh in sweep
                ])
        return figure

    # ------------------------------------------------------------------ #
    # Figures 11/17 — memory latency percentiles
    # ------------------------------------------------------------------ #
    def _latency_plan(self, with_attacker: bool,
                      nrh: Optional[int] = None,
                      mechanisms: Optional[Sequence[str]] = None,
                      mixes: Optional[Sequence[str]] = None,
                      points: Sequence[int] = (50, 75, 90, 95, 99, 100),
                      ) -> SweepPlan:
        nrh = nrh or self.config.nrh_low
        mechanisms = list(mechanisms or self.config.mechanisms)
        mixes = list(
            mixes or (
                self.config.attack_mixes if with_attacker
                else self.config.benign_mixes
            )
        )
        return self._grid_plan(
            "fig11" if with_attacker else "fig17",
            mixes, mechanisms, (nrh,), (False, True), alone=False,
            extra_runs=[(mix, "none", nrh, False) for mix in mixes],
            meta=dict(nrh=nrh, mechanisms=mechanisms, mixes=mixes,
                      points=list(points)),
        )

    def _plan_fig11(self, **kwargs) -> SweepPlan:
        return self._latency_plan(True, **kwargs)

    def _plan_fig17(self, **kwargs) -> SweepPlan:
        return self._latency_plan(False, **kwargs)

    def latency_percentile_figure(self, with_attacker: bool,
                                  nrh: Optional[int] = None,
                                  mechanisms: Optional[Sequence[str]] = None,
                                  mixes: Optional[Sequence[str]] = None,
                                  points: Sequence[int] = (50, 75, 90, 95, 99, 100),
                                  ) -> FigureData:
        return self._figure_from_plan(
            self._latency_plan(with_attacker, nrh, mechanisms, mixes, points)
        )

    def _frame_latency(self, plan: SweepPlan, seed: int) -> FigureData:
        with_attacker = plan.figure_id == "fig11"
        nrh = plan.meta["nrh"]
        mechanisms = plan.meta["mechanisms"]
        mixes = plan.meta["mixes"]
        points = plan.meta["points"]
        only = plan.meta.get("series")
        figure = FigureData(
            figure_id=plan.figure_id,
            title="Benign memory latency percentiles at low N_RH "
                  f"({'attacker present' if with_attacker else 'all benign'})",
            x_label="percentile",
            y_label="latency_cycles",
            x_values=list(points),
        )

        def curve(mechanism: str, bh: bool) -> List[float]:
            per_point: List[List[float]] = [[] for _ in points]
            for mix_name in mixes:
                mix = self.mix(mix_name, seed)
                stats = self.run(mix_name, mechanism, nrh, bh, seed)
                pcts = stats.latency_curve(mix.benign_threads, points=tuple(points))
                for idx, p in enumerate(points):
                    per_point[idx].append(pcts[p])
            return [sum(vals) / len(vals) if vals else 0.0 for vals in per_point]

        if self._want(only, "no_defense"):
            figure.add_series("no_defense", curve("none", False))
        for mechanism in mechanisms:
            if self._want(only, mechanism):
                figure.add_series(mechanism, curve(mechanism, False))
            if self._want(only, f"{mechanism}+BH"):
                figure.add_series(f"{mechanism}+BH", curve(mechanism, True))
        return figure

    def figure11(self, **kwargs) -> FigureData:
        return self.latency_percentile_figure(True, **kwargs)

    def figure17(self, **kwargs) -> FigureData:
        return self.latency_percentile_figure(False, **kwargs)

    # ------------------------------------------------------------------ #
    # Figure 12 — DRAM energy
    # ------------------------------------------------------------------ #
    def _plan_fig12(self, mechanisms: Optional[Sequence[str]] = None,
                    mixes: Optional[Sequence[str]] = None) -> SweepPlan:
        mechanisms = list(mechanisms or self.config.mechanisms)
        mixes = list(mixes or self.config.attack_mixes)
        sweep = list(self.config.nrh_sweep)
        return self._grid_plan(
            "fig12", mixes, mechanisms, sweep, (False, True),
            baseline=True, alone=False,
            meta=dict(mechanisms=mechanisms, mixes=mixes, sweep=sweep),
        )

    def figure12(self, mechanisms: Optional[Sequence[str]] = None,
                 mixes: Optional[Sequence[str]] = None) -> FigureData:
        return self._figure_from_plan(self._plan_fig12(mechanisms, mixes))

    def _frame_fig12(self, plan: SweepPlan, seed: int) -> FigureData:
        mechanisms = plan.meta["mechanisms"]
        mixes = plan.meta["mixes"]
        sweep = plan.meta["sweep"]
        only = plan.meta.get("series")
        figure = FigureData(
            figure_id="fig12",
            title="DRAM energy vs N_RH (attacker present, normalised to "
                  "no mitigation)",
            x_label="nrh",
            y_label="normalized_dram_energy",
            x_values=sweep,
        )
        baseline: Dict[str, float] = {}
        for mix_name in mixes:
            stats = self.run(mix_name, "none", self.config.nrh_default, False,
                             seed)
            baseline[mix_name] = max(1e-9, stats.energy_mj)

        def series(mechanism: str, bh: bool) -> List[float]:
            values = []
            for nrh in sweep:
                ratios = []
                for mix_name in mixes:
                    stats = self.run(mix_name, mechanism, nrh, bh, seed)
                    ratios.append(stats.energy_mj / baseline[mix_name])
                values.append(sum(ratios) / len(ratios))
            return values

        for mechanism in mechanisms:
            if self._want(only, mechanism):
                figure.add_series(mechanism, series(mechanism, False))
            if self._want(only, f"{mechanism}+BH"):
                figure.add_series(f"{mechanism}+BH", series(mechanism, True))
        return figure

    # ------------------------------------------------------------------ #
    # Figures 13-16 — all-benign studies
    # ------------------------------------------------------------------ #
    def _plan_fig13(self, **kwargs) -> SweepPlan:
        return self._per_mix_plan("fig13", self.config.nrh_low,
                                  self.config.benign_mixes, **kwargs)

    def _plan_fig14(self, **kwargs) -> SweepPlan:
        return self._per_mix_plan("fig14", self.config.nrh_default,
                                  self.config.benign_mixes, **kwargs)

    def figure13(self, nrh: Optional[int] = None,
                 mixes: Optional[Sequence[str]] = None,
                 mechanisms: Optional[Sequence[str]] = None) -> FigureData:
        return self._figure_from_plan(
            self._plan_fig13(nrh=nrh, mixes=mixes, mechanisms=mechanisms)
        )

    def figure14(self, nrh: Optional[int] = None,
                 mixes: Optional[Sequence[str]] = None,
                 mechanisms: Optional[Sequence[str]] = None) -> FigureData:
        return self._figure_from_plan(
            self._plan_fig14(nrh=nrh, mixes=mixes, mechanisms=mechanisms)
        )

    def _benign_scaling_plan(self, figure_id: str,
                             mechanisms: Optional[Sequence[str]] = None,
                             mixes: Optional[Sequence[str]] = None
                             ) -> SweepPlan:
        mechanisms = list(mechanisms or self.config.mechanisms)
        mixes = list(mixes or self.config.benign_mixes)
        sweep = list(self.config.nrh_sweep)
        return self._grid_plan(
            figure_id, mixes, mechanisms, sweep, (False, True),
            meta=dict(mechanisms=mechanisms, mixes=mixes, sweep=sweep),
        )

    def _plan_fig15(self, **kwargs) -> SweepPlan:
        return self._benign_scaling_plan("fig15", **kwargs)

    def _plan_fig16(self, **kwargs) -> SweepPlan:
        return self._benign_scaling_plan("fig16", **kwargs)

    #: figure_id -> metric of the all-benign N_RH-scaling family.
    _BENIGN_SCALING_METRICS: Dict[str, str] = {
        "fig15": "weighted_speedup",
        "fig16": "max_slowdown",
    }

    def _frame_benign_scaling(self, plan: SweepPlan, seed: int) -> FigureData:
        metric = self._BENIGN_SCALING_METRICS[plan.figure_id]
        mechanisms = plan.meta["mechanisms"]
        mixes = plan.meta["mixes"]
        sweep = plan.meta["sweep"]
        only = plan.meta.get("series")
        is_perf = metric == "weighted_speedup"
        figure = FigureData(
            figure_id=plan.figure_id,
            title=f"All-benign {metric} of mechanism+BH normalised to the "
                  "mechanism alone, vs N_RH",
            x_label="nrh",
            y_label="normalized_" + metric,
            x_values=sweep,
        )
        for mechanism in mechanisms:
            if not self._want(only, f"{mechanism}+BH"):
                continue
            values = []
            for nrh in sweep:
                ratios = []
                for mix_name in mixes:
                    mix = self.mix(mix_name, seed)
                    base = self.run(mix_name, mechanism, nrh, False, seed)
                    with_bh = self.run(mix_name, mechanism, nrh, True, seed)
                    if is_perf:
                        value = self.benign_weighted_speedup(with_bh, mix)
                        baseline = self.benign_weighted_speedup(base, mix)
                    else:
                        value = self.benign_max_slowdown(with_bh, mix)
                        baseline = self.benign_max_slowdown(base, mix)
                    ratios.append(value / max(1e-9, baseline))
                values.append(geometric_mean([max(1e-9, r) for r in ratios]))
            figure.add_series(f"{mechanism}+BH", values)
        return figure

    def figure15(self, mechanisms: Optional[Sequence[str]] = None,
                 mixes: Optional[Sequence[str]] = None) -> FigureData:
        return self._figure_from_plan(
            self._plan_fig15(mechanisms=mechanisms, mixes=mixes)
        )

    def figure16(self, mechanisms: Optional[Sequence[str]] = None,
                 mixes: Optional[Sequence[str]] = None) -> FigureData:
        return self._figure_from_plan(
            self._plan_fig16(mechanisms=mechanisms, mixes=mixes)
        )

    # ------------------------------------------------------------------ #
    # Figure 18 — comparison with BlockHammer
    # ------------------------------------------------------------------ #
    def _plan_fig18(self, mechanisms: Optional[Sequence[str]] = None,
                    mixes: Optional[Sequence[str]] = None) -> SweepPlan:
        mechanisms = list(mechanisms or self.config.mechanisms)
        mixes = list(mixes or self.config.attack_mixes)
        sweep = list(self.config.nrh_sweep)
        return self._grid_plan(
            "fig18", mixes, mechanisms, sweep, (True,), baseline=True,
            extra_runs=[(mix, "blockhammer", nrh, False)
                        for nrh in sweep for mix in mixes],
            meta=dict(mechanisms=mechanisms, mixes=mixes, sweep=sweep),
        )

    def figure18(self, mechanisms: Optional[Sequence[str]] = None,
                 mixes: Optional[Sequence[str]] = None) -> FigureData:
        return self._figure_from_plan(self._plan_fig18(mechanisms, mixes))

    def _frame_fig18(self, plan: SweepPlan, seed: int) -> FigureData:
        mechanisms = plan.meta["mechanisms"]
        mixes = plan.meta["mixes"]
        sweep = plan.meta["sweep"]
        only = plan.meta.get("series")
        figure = FigureData(
            figure_id="fig18",
            title="BreakHammer-paired mechanisms vs BlockHammer "
                  "(attacker present, normalised to no mitigation)",
            x_label="nrh",
            y_label="normalized_weighted_speedup",
            x_values=sweep,
        )
        baseline: Dict[str, float] = {}
        for mix_name in mixes:
            mix = self.mix(mix_name, seed)
            stats = self.run(mix_name, "none", self.config.nrh_default, False,
                             seed)
            baseline[mix_name] = self.benign_weighted_speedup(stats, mix)

        def series(mechanism: str, bh: bool) -> List[float]:
            values = []
            for nrh in sweep:
                ratios = []
                for mix_name in mixes:
                    mix = self.mix(mix_name, seed)
                    stats = self.run(mix_name, mechanism, nrh, bh, seed)
                    ws = self.benign_weighted_speedup(stats, mix)
                    ratios.append(ws / max(1e-9, baseline[mix_name]))
                values.append(geometric_mean([max(1e-9, r) for r in ratios]))
            return values

        for mechanism in mechanisms:
            if self._want(only, f"{mechanism}+BH"):
                figure.add_series(f"{mechanism}+BH", series(mechanism, True))
        if self._want(only, "blockhammer"):
            figure.add_series("blockhammer", series("blockhammer", False))
        return figure

    # ------------------------------------------------------------------ #
    # Figure 19 — sensitivity to TH_threat
    # ------------------------------------------------------------------ #
    def figure19(self, threat_thresholds: Sequence[float] = (2.0, 8.0, 32.0),
                 nrh_values: Optional[Sequence[int]] = None,
                 mechanism: str = "graphene") -> FigureData:
        """Sensitivity of the BreakHammer benefit to ``TH_threat``.

        The paper sweeps 32 / 512 / 4096 over 64 ms windows; the scaled
        equivalents here keep the same ratios over the shortened windows.
        Values are weighted speedup normalised to the *largest* threshold
        (the least aggressive configuration), as in the paper.
        """

        nrh_values = list(nrh_values or (self.config.nrh_sweep[0],
                                         self.config.nrh_default,
                                         self.config.nrh_low))
        thresholds = list(threat_thresholds)
        figure = FigureData(
            figure_id="fig19",
            title="Sensitivity to TH_threat (weighted speedup normalised to "
                  "the largest threshold)",
            x_label="th_threat",
            y_label="normalized_weighted_speedup",
            x_values=thresholds,
        )

        def ws_for(mix_name: str, nrh: int, threshold: float) -> float:
            mix = self.mix(mix_name)
            config = self._base_system.with_(
                mitigation=mechanism, nrh=nrh, breakhammer_enabled=True,
                breakhammer=self._base_system.breakhammer.__class__(
                    window_ms=self._base_system.breakhammer.window_ms,
                    threat_threshold=threshold,
                    outlier_threshold=self._base_system.breakhammer.outlier_threshold,
                    p_oldsuspect=self._base_system.breakhammer.p_oldsuspect,
                    p_newsuspect=self._base_system.breakhammer.p_newsuspect,
                ),
            )
            simulator = Simulator(
                config, mix.traces,
                self.config.simulation_config(),
                attacker_threads=mix.attacker_threads,
            )
            result = simulator.run()
            self.runs_executed += 1
            return self.benign_weighted_speedup(result.stats, mix)

        attack_mix = self.config.attack_mixes[0]
        benign_mix = self.config.benign_mixes[0]
        for nrh in nrh_values:
            for scenario, mix_name in (("attack", attack_mix),
                                       ("benign", benign_mix)):
                raw = [ws_for(mix_name, nrh, th) for th in thresholds]
                reference = max(1e-9, raw[-1])
                figure.add_series(
                    f"{scenario}_nrh{nrh}", [v / reference for v in raw]
                )
        return figure

    # ------------------------------------------------------------------ #
    # Tables
    # ------------------------------------------------------------------ #
    def table1(self) -> TableData:
        """Simulated system configuration (paper Table 1)."""

        config = self.system_config("graphene", self.config.nrh_default, True)
        description = config.describe()
        table = TableData(
            table_id="table1",
            title="Simulated system configuration",
            columns=["component", "parameters"],
        )
        for component, parameters in description.items():
            table.add_row({"component": component, "parameters": parameters})
        return table

    def table2(self) -> TableData:
        """BreakHammer configuration (paper Table 2)."""

        paper = SystemConfig.paper_exact(breakhammer_enabled=True)
        scaled = self._base_system
        table = TableData(
            table_id="table2",
            title="BreakHammer configuration (paper values and scaled values)",
            columns=["parameter", "paper_value", "scaled_value"],
        )
        paper_dict = paper.breakhammer.as_dict()
        scaled_dict = scaled.breakhammer.as_dict()
        for key in paper_dict:
            table.add_row({
                "parameter": key,
                "paper_value": paper_dict[key],
                "scaled_value": scaled_dict[key],
            })
        return table

    def table3(self) -> TableData:
        """Workload characteristics (paper Table 3) for the synthetic suite."""

        mix_names = set(self.config.benign_mixes) | set(self.config.attack_mixes)
        traces: List[Trace] = []
        seen = set()
        for name in sorted(mix_names):
            for trace in self.mix(name).traces:
                if trace.name not in seen:
                    seen.add(trace.name)
                    traces.append(trace)
        rows = characterize_suite(traces, device=self._base_system.device,
                                  mapping=self._base_system.mapping)
        table = TableData(
            table_id="table3",
            title="Workload characteristics (synthetic suite)",
            columns=["Workload", "RBMPKI", "ACT-512+", "ACT-128+", "ACT-64+"],
            notes="Paper reference rows available as "
                  "repro.workloads.characteristics.PAPER_TABLE3",
        )
        for row in rows[:12]:
            table.add_row(row.as_row())
        table.add_row(average_row(rows))
        return table

    def paper_table3(self) -> TableData:
        table = TableData(
            table_id="table3_paper",
            title="Workload characteristics (paper-reported values)",
            columns=["Workload", "RBMPKI", "ACT-512+", "ACT-128+", "ACT-64+"],
        )
        for row in PAPER_TABLE3:
            table.add_row(row)
        return table

    def hardware_complexity(self, num_threads: int = 4,
                            channels: int = 1) -> TableData:
        """The §6 area/latency analysis.

        Uses the paper's uncompressed DDR5 timings: the latency-vs-tRRD claim
        is about real silicon, not about the scaled simulation profile.
        """

        from repro.dram.config import DeviceConfig

        model = HardwareCostModel(num_threads=num_threads, channels=channels,
                                  device_config=DeviceConfig.ddr5_4800())
        report = model.report()
        table = TableData(
            table_id="hw",
            title="BreakHammer hardware complexity",
            columns=["quantity", "value"],
        )
        for key, value in report.as_dict().items():
            table.add_row({"quantity": key, "value": value})
        return table

    # ------------------------------------------------------------------ #
    # Headline numbers (abstract / §8 claims)
    # ------------------------------------------------------------------ #
    def headline_plan(self, nrh: Optional[int] = None) -> SweepPlan:
        nrh = nrh or self.config.nrh_low
        return self._grid_plan(
            "headline", list(self.config.attack_mixes),
            list(self.config.mechanisms), (nrh,), (False, True),
            meta=dict(nrh=nrh),
        )

    def headline_numbers(self, nrh: Optional[int] = None) -> Dict[str, float]:
        """Average benign speedup / action reduction with an attacker present.

        Mirrors the abstract's "improves performance by 90.1% and reduces
        DRAM energy by 55.7% on average across workloads with a malicious
        application" claim structure (the magnitudes depend on scale).
        """

        plan = self.headline_plan(nrh)
        self._execute_plan(plan)
        return aggregate_headlines(
            [self._headline_frame(plan, seed) for seed in plan.seeds]
        )

    def _headline_frame(self, plan: SweepPlan, seed: int) -> Dict[str, float]:
        """One seed's headline numbers, from warm caches (see figure_frame)."""

        nrh = plan.meta["nrh"]
        speedups: List[float] = []
        energy_ratios: List[float] = []
        action_ratios: List[float] = []
        for mechanism in self.config.mechanisms:
            for mix_name in self.config.attack_mixes:
                mix = self.mix(mix_name, seed)
                base = self.run(mix_name, mechanism, nrh, False, seed)
                with_bh = self.run(mix_name, mechanism, nrh, True, seed)
                ws_base = self.benign_weighted_speedup(base, mix)
                ws_bh = self.benign_weighted_speedup(with_bh, mix)
                speedups.append(ws_bh / max(1e-9, ws_base))
                energy_ratios.append(
                    with_bh.energy_mj / max(1e-9, base.energy_mj)
                )
                if base.preventive_actions:
                    action_ratios.append(
                        with_bh.preventive_actions / base.preventive_actions
                    )
        return {
            "mean_benign_speedup": geometric_mean(speedups),
            "mean_energy_ratio": sum(energy_ratios) / len(energy_ratios),
            "mean_preventive_action_ratio": (
                sum(action_ratios) / len(action_ratios) if action_ratios else 1.0
            ),
        }
