"""Experiment harness: one entry point per paper figure/table.

:class:`ExperimentRunner` is the engine :class:`repro.api.Session` drives.
Built from a resolved :class:`repro.api.ExperimentSpec` (the scale: cycles
per run, workload sizes, the N_RH sweep) and an
:class:`~repro.analysis.executor.ExecutionPlan`, it memoises simulation
runs and standalone-IPC baselines and exposes ``figure2()`` …
``figure19()``, ``table1()`` … ``table3()`` and ``hardware_complexity()``
methods that return :class:`repro.analysis.figures.FigureData` /
``TableData`` objects shaped like the paper's artefacts.

Figs. 2 and 6-18 are defined once, as :data:`FIGURE_DEFS` entries: a
mechanism with or without BreakHammer over an N_RH sweep, a mix list or a
latency curve, divided by a reference run.  Each figure's
:class:`~repro.analysis.executor.SweepPlan`, per-seed frame and adaptive
escalation plans all derive from its entry.

Scale
-----
Runs are deliberately short (tens of thousands of controller cycles) so that
the whole harness finishes in minutes of pure Python; the paper's qualitative
structure — which mechanism wins, how trends move with N_RH, where
BreakHammer helps and where it cannot — is preserved.  ROADMAP.md records
the profiles and what each one measures.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.aggregate import aggregate_figures, aggregate_headlines
from repro.analysis.executor import (
    AloneResult,
    ExecutionPlan,
    RunHandle,
    RunTask,
    SerialSweepExecutor,
    SweepExecutor,
    SweepPlan,
    TASK_ALONE,
    TASK_RUN,
    iter_completed,
    make_executor,
)
from repro.analysis.figures import FigureData, TableData
from repro.analysis.runcache import RunCache
from repro.core.hardware_model import HardwareCostModel
from repro.core.security import SecurityAnalysis
from repro.cpu.trace import Trace
from repro.mitigations.registry import MOTIVATION_MECHANISMS
from repro.sim.config import SystemConfig
from repro.sim.metrics import geometric_mean, max_slowdown, weighted_speedup
from repro.sim.simulator import Simulator
from repro.sim.stats import RunStatistics
from repro.workloads.attacker import AttackerConfig
from repro.workloads.characteristics import (
    PAPER_TABLE3,
    average_row,
    characterize_suite,
)
from repro.workloads.mixes import WorkloadMix, make_mix


#: The full memoisation key of one run: its grid coordinate (mix, seed,
#: mechanism, nrh, breakhammer) extended with the trace generation
#: parameters and simulation bounds, so two distinct configurations can
#: never alias one cache entry (in memory or on disk).
RunKey = Tuple[str, int, str, int, bool, int, int, int, str]

#: A (mix_name, mechanism, nrh, breakhammer) request, as sweep plans list
#: them (a figure's plan derives them from its :data:`FIGURE_DEFS` entry)
#: and :meth:`ExperimentRunner.submit_prefetch` takes them one seed at a
#: time — the plan's seed axis multiplies the same list across its seeds.
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

#: The latency percentiles Figs. 11 and 17 plot unless told otherwise.
LATENCY_PERCENTILES: Tuple[int, ...] = (50, 75, 90, 95, 99, 100)

#: One figure series: (label, mechanism, breakhammer).
Series = Tuple[str, str, bool]


@dataclass(frozen=True)
class FigureDef:
    """What one plan-backed figure computes.

    A cell (series, x value) folds the series' values over the mixes; on
    the ``mix`` axis each mix's cell is its own value and ``"geomean"``
    folds them all.  A value is the ``metric`` of the series' run of one
    mix at the x value's N_RH, divided by the ``normaliser``'s run of the
    same mix.  The sweep plan, the per-seed frame and every escalation
    plan of the figure derive from this entry alone.
    """

    title: str
    #: ``"nrh"``: the spec's N_RH sweep.  ``"mix"``: the mixes plus
    #: ``"geomean"``, at one N_RH.  ``"percentile"``: latency percentiles
    #: over one run set, at one N_RH.  The axis name is the x label.
    x_axis: str
    #: ``weighted_speedup`` / ``max_slowdown`` (of the benign threads),
    #: ``preventive_actions``, ``dram_energy`` or ``latency_cycles``.
    metric: str
    #: The spec field that gives the default mixes.
    mixes_field: str
    #: The spec field that gives the single N_RH of the ``mix`` and
    #: ``percentile`` axes.
    nrh_field: Optional[str] = None
    #: ``"no_mitigation"``: the mix's no-mitigation run at
    #: ``nrh_default``.  ``"without_bh"``: the same mechanism without
    #: BreakHammer.  ``"reference_nrh"``: the mechanism's folded value at
    #: the largest N_RH (divided after the fold, floored at 1).  ``None``:
    #: raw values.
    normaliser: Optional[str] = None
    #: The series of each mechanism: without BreakHammer (``False``,
    #: labelled by the mechanism), with it (``True``, ``<mechanism>+BH``),
    #: or both.
    breakhammer: Tuple[bool, ...] = (True,)
    #: Fixed series drawn before and after the mechanisms' series.
    series_before: Tuple[Series, ...] = ()
    series_after: Tuple[Series, ...] = ()
    #: How a cell folds its per-mix values: ``"geomean"`` (clamped at
    #: 1e-9) or ``"mean"``.
    fold: str = "geomean"
    #: Default mechanisms (``None``: the spec's), and mechanisms the
    #: figure never draws, even when asked to.
    mechanisms: Optional[Tuple[str, ...]] = None
    excluded: Tuple[str, ...] = ()

    @property
    def needs_alone(self) -> bool:
        """Whether the metric divides by the standalone-IPC baselines."""

        return self.metric in ("weighted_speedup", "max_slowdown")


_NO_DEFENSE: Series = ("no_defense", "none", False)

#: Every plan-backed figure, defined once (fig5, fig19, the tables and the
#: headline numbers keep their own code).
FIGURE_DEFS: Dict[str, FigureDef] = {
    "fig2": FigureDef(
        "System performance of RowHammer mitigations vs N_RH "
        "(benign workloads, normalised to no mitigation)",
        "nrh", "weighted_speedup", "benign_mixes",
        normaliser="no_mitigation", breakhammer=(False,),
        mechanisms=tuple(MOTIVATION_MECHANISMS),
    ),
    "fig6": FigureDef(
        "Benign weighted speedup with BreakHammer, normalised to the "
        "mechanism alone",
        "mix", "weighted_speedup", "attack_mixes",
        nrh_field="nrh_default", normaliser="without_bh",
    ),
    "fig7": FigureDef(
        "Benign unfairness (max slowdown) with BreakHammer, normalised to "
        "the mechanism alone",
        "mix", "max_slowdown", "attack_mixes",
        nrh_field="nrh_default", normaliser="without_bh",
    ),
    "fig8": FigureDef(
        "weighted_speedup vs N_RH (attacker present, normalised to no "
        "mitigation)",
        "nrh", "weighted_speedup", "attack_mixes",
        normaliser="no_mitigation", breakhammer=(False, True),
    ),
    "fig9": FigureDef(
        "max_slowdown vs N_RH (attacker present, normalised to no "
        "mitigation)",
        "nrh", "max_slowdown", "attack_mixes", normaliser="no_mitigation",
    ),
    "fig10": FigureDef(
        "RowHammer-preventive actions vs N_RH (attacker present, "
        "normalised to the mechanism alone at the largest N_RH)",
        "nrh", "preventive_actions", "attack_mixes",
        normaliser="reference_nrh", breakhammer=(False, True), fold="mean",
        excluded=("rega",),
    ),
    "fig11": FigureDef(
        "Benign memory latency percentiles at low N_RH (attacker present)",
        "percentile", "latency_cycles", "attack_mixes",
        nrh_field="nrh_low", breakhammer=(False, True),
        series_before=(_NO_DEFENSE,), fold="mean",
    ),
    "fig12": FigureDef(
        "DRAM energy vs N_RH (attacker present, normalised to no "
        "mitigation)",
        "nrh", "dram_energy", "attack_mixes",
        normaliser="no_mitigation", breakhammer=(False, True), fold="mean",
    ),
    "fig13": FigureDef(
        "Benign-only weighted speedup with BreakHammer, normalised to the "
        "mechanism alone",
        "mix", "weighted_speedup", "benign_mixes",
        nrh_field="nrh_low", normaliser="without_bh",
    ),
    "fig14": FigureDef(
        "Benign-only unfairness with BreakHammer, normalised to the "
        "mechanism alone",
        "mix", "max_slowdown", "benign_mixes",
        nrh_field="nrh_default", normaliser="without_bh",
    ),
    "fig15": FigureDef(
        "All-benign weighted_speedup of mechanism+BH normalised to the "
        "mechanism alone, vs N_RH",
        "nrh", "weighted_speedup", "benign_mixes", normaliser="without_bh",
    ),
    "fig16": FigureDef(
        "All-benign max_slowdown of mechanism+BH normalised to the "
        "mechanism alone, vs N_RH",
        "nrh", "max_slowdown", "benign_mixes", normaliser="without_bh",
    ),
    "fig17": FigureDef(
        "Benign memory latency percentiles at low N_RH (all benign)",
        "percentile", "latency_cycles", "benign_mixes",
        nrh_field="nrh_low", breakhammer=(False, True),
        series_before=(_NO_DEFENSE,), fold="mean",
    ),
    "fig18": FigureDef(
        "BreakHammer-paired mechanisms vs BlockHammer (attacker present, "
        "normalised to no mitigation)",
        "nrh", "weighted_speedup", "attack_mixes",
        normaliser="no_mitigation",
        series_after=(("blockhammer", "blockhammer", False),),
    ),
}


def _figure_def(figure_id: str) -> FigureDef:
    definition = FIGURE_DEFS.get(figure_id)
    if definition is None:
        raise ValueError(f"figure {figure_id!r} has no per-seed frames")
    return definition


def _series(definition: FigureDef, meta: Dict[str, object]) -> List[Series]:
    """The series a plan's frame draws, in order.

    ``meta["series"]``, when an escalation plan sets it, keeps only the
    series with those labels.
    """

    series = list(definition.series_before)
    for mechanism in meta["mechanisms"]:
        series.extend(
            (f"{mechanism}+BH" if breakhammer else mechanism, mechanism,
             breakhammer)
            for breakhammer in definition.breakhammer
        )
    series.extend(definition.series_after)
    only = meta.get("series")
    return [s for s in series if only is None or s[0] in only]

class ExperimentRunner:
    """Runs and memoises the simulations behind every figure.

    Three cache layers back :meth:`run`:

    1. in-memory memoisation (``_run_cache``);
    2. an optional persistent on-disk :class:`RunCache`
       (``execution.cache_dir``), keyed by the full :data:`RunKey` under
       the spec-fingerprint namespace, shared across processes and
       invocations;
    3. a pluggable :class:`SweepExecutor` that computes the missing portion
       of a run grid as futures (:meth:`submit_plan`) — serially or across
       worker processes (``execution.jobs``).

    Every plan-backed figure goes through the same three steps, read from
    its :data:`FIGURE_DEFS` entry: :meth:`figure_plan` lists its runs,
    :meth:`resolve_plan` executes them, and :meth:`figure_frame` folds
    one seed's frame from the warm caches.

    ``spec`` must carry the engine ``execution`` resolved
    (:meth:`repro.api.ExperimentSpec.resolved`).
    """

    def __init__(self, spec, execution: ExecutionPlan) -> None:
        if spec.engine != execution.engine:
            raise ValueError(
                f"spec engine {spec.engine!r} is not the execution plan's "
                f"{execution.engine!r}; resolve it (Session does this) "
                "before building a runner"
            )
        self.spec = spec
        self.execution = execution
        self._mix_cache: Dict[Tuple[str, int, int, int], WorkloadMix] = {}
        self._run_cache: Dict[RunKey, RunStatistics] = {}
        self._alone_ipc_cache: Dict[Tuple[str, int], float] = {}
        self._base_system = spec.base_system()
        self.fingerprint = spec.fingerprint()
        self._disk_cache: Optional[RunCache] = (
            RunCache(execution.cache_dir, self.fingerprint)
            if execution.cache_dir else None
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
        key = (name, seed, self.spec.entries_per_core,
               self.spec.attacker_entries)
        if key not in self._mix_cache:
            self._mix_cache[key] = make_mix(
                name,
                device=self._base_system.device,
                mapping=self._base_system.mapping,
                entries_per_core=self.spec.entries_per_core,
                attacker_entries=self.spec.attacker_entries,
                seed=seed,
                attacker_config=AttackerConfig(
                    entries=self.spec.attacker_entries, seed=seed
                ),
            )
        return self._mix_cache[key]

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
                self.spec.entries_per_core, self.spec.attacker_entries,
                self.spec.sim_cycles, self.spec.engine)

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
            self.spec.simulation_config(),
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
                self.spec.entries_per_core, self.spec.attacker_entries,
                self.spec.sim_cycles, self.spec.engine)

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
        no-mitigation run :meth:`alone_ipc` derives its IPC from, and
        persists it when the run cache is on.
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
                              self.spec.simulation_config())
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
    # Sweep execution (futures)
    # ------------------------------------------------------------------ #
    def submit_prefetch(self, runs: Sequence[RunSpec] = (),
                        alone_mixes: Sequence[str] = (),
                        seed: int = 0) -> List[RunHandle]:
        """Dispatch the missing portion of a run grid through the executor.

        ``runs`` lists (mix, mechanism, nrh, breakhammer) grid points and
        ``alone_mixes`` names mixes whose per-trace standalone-IPC
        baselines are needed.  Returns one :class:`RunHandle` per
        *distinct* requested point — grid runs first (request order), then
        the per-trace standalone-IPC baselines of ``alone_mixes``, sharded
        across the same pool.  Already-cached points (in memory or on disk)
        yield handles born completed; points already in flight (submitted
        by an earlier plan of this runner) are reused, so overlapping
        figure grids never execute a point twice.  Consuming a handle's
        ``result()`` merges the outcome into this runner's caches;
        aggregation can therefore start as soon as the first handle
        completes.
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

    def resolve_plan(self, plan: SweepPlan) -> None:
        """Submit ``plan`` and wait until every point is merged.

        Handles are consumed in completion order, so the frame builders
        that follow read warm caches only.  Points a caller submitted
        earlier are shared, not executed again.
        """

        for handle in iter_completed(self.submit_plan(plan)):
            handle.result()

    # ------------------------------------------------------------------ #
    # Declarative figure sweep plans and per-seed frames
    # ------------------------------------------------------------------ #
    def figure_plan(self, figure_id: str, **kwargs) -> SweepPlan:
        """The declarative sweep plan behind one figure.

        The keyword arguments of the figure's ``figureN`` method resolve
        against its :data:`FIGURE_DEFS` entry into ``plan.meta`` (the
        mechanisms, the mixes, and the N_RH sweep or the single N_RH), and
        :meth:`_plan` derives the grid from that.  Each ``figureN`` method
        resolves exactly the plan this returns, so a session that streams
        the plan's handles first and then aggregates shares every point
        with it.  Figures without a sweep (fig5's analytical bound,
        fig19's bespoke threshold sweep) return an empty plan.
        """

        if figure_id == "headline":
            return self.headline_plan(**kwargs)
        if figure_id not in FIGURES:
            raise ValueError(
                f"unknown figure {figure_id!r}; one of {sorted(FIGURES)}"
            )
        definition = FIGURE_DEFS.get(figure_id)
        if definition is None:
            return SweepPlan(figure_id=figure_id, meta=dict(kwargs))
        allowed = {"mechanisms", "mixes"}
        if definition.x_axis != "nrh":
            allowed.add("nrh")
        if definition.x_axis == "percentile":
            allowed.add("points")
        unexpected = sorted(set(kwargs) - allowed)
        if unexpected:
            raise TypeError(
                f"{figure_id} got unexpected keyword arguments {unexpected}"
            )
        mechanisms = (kwargs.get("mechanisms") or definition.mechanisms
                      or self.spec.mechanisms)
        meta: Dict[str, object] = {
            "mechanisms": [m for m in mechanisms
                           if m not in definition.excluded],
            "mixes": list(kwargs.get("mixes")
                          or getattr(self.spec, definition.mixes_field)),
        }
        if definition.x_axis == "nrh":
            meta["sweep"] = list(self.spec.nrh_sweep)
        else:
            meta["nrh"] = (kwargs.get("nrh")
                           or getattr(self.spec, definition.nrh_field))
        if definition.normaliser == "reference_nrh":
            meta["reference_nrh"] = max(meta["sweep"])
        if definition.x_axis == "percentile":
            meta["points"] = list(kwargs.get("points", LATENCY_PERCENTILES))
        return self._plan(figure_id, meta)

    def _plan(self, figure_id: str, meta: Dict[str, object]) -> SweepPlan:
        """Every run the series of ``meta`` read across its x axis.

        The grid runs mechanism × N_RH × BreakHammer × mix, after the
        mixes' no-mitigation runs when the figure normalises to them; a
        mechanism's runs at the reference N_RH lead its block.  Full plans
        (:meth:`figure_plan`) and escalation plans
        (:meth:`escalation_plan`) both come from here, from differently
        narrowed ``meta``.
        """

        definition = FIGURE_DEFS[figure_id]
        mixes = meta["mixes"]
        normaliser = definition.normaliser
        runs: List[RunSpec] = []
        if normaliser == "no_mitigation":
            runs.extend((mix, "none", self.spec.nrh_default, False)
                        for mix in mixes)
        flags: Dict[str, set] = {}
        for _, mechanism, breakhammer in _series(definition, meta):
            flags.setdefault(mechanism, set()).add(breakhammer)
            if normaliser == "without_bh":
                flags[mechanism].add(False)
        nrh_values = (meta["sweep"] if definition.x_axis == "nrh"
                      else [meta["nrh"]])
        for mechanism, settings in flags.items():
            if normaliser == "reference_nrh":
                runs.extend((mix, mechanism, meta["reference_nrh"], False)
                            for mix in mixes)
            runs.extend((mix, mechanism, nrh, breakhammer)
                        for nrh in nrh_values
                        for breakhammer in sorted(settings)
                        for mix in mixes)
        return SweepPlan(
            figure_id=figure_id,
            runs=tuple(dict.fromkeys(runs)),
            alone_mixes=tuple(mixes) if definition.needs_alone else (),
            seeds=tuple(self.spec.seeds),
            meta=meta,
        )

    def escalation_plan(self, plan: SweepPlan,
                        cells: Sequence[Tuple[str, object]]) -> SweepPlan:
        """The narrowed plan one adaptive escalation round executes.

        ``cells`` lists (series label, x value) coordinates of ``plan``'s
        figure whose CI is still wider than the campaign target.  The
        returned plan covers exactly the runs those cells' frame values
        depend on: ``meta["series"]`` keeps the wide series only and, where
        the x axis maps one-to-one onto grid runs (an N_RH, a mix), the x
        values narrow too.  Cells that aggregate *across* a dimension (the
        geomean over mixes, a latency curve over one run set) keep that
        dimension whole, so escalated frame cells equal what a full frame
        at the same seed would hold.
        """

        x_axis = _figure_def(plan.figure_id).x_axis
        wide_x = {x for _, x in cells}
        meta = dict(plan.meta)
        meta["series"] = list(dict.fromkeys(label for label, _ in cells))
        if x_axis == "nrh":
            meta["sweep"] = [nrh for nrh in meta["sweep"] if nrh in wide_x]
        elif x_axis == "mix" and "geomean" not in wide_x:
            meta["mixes"] = [mix for mix in meta["mixes"] if mix in wide_x]
        return dataclasses.replace(self._plan(plan.figure_id, meta),
                                   seeds=plan.seeds)

    def figure_frame(self, plan: SweepPlan, seed: int) -> FigureData:
        """Aggregate one *seed's* frame of a figure.

        Reads warm caches once the plan is resolved (:meth:`resolve_plan`);
        a run missing from them is simulated on demand, serially.  Frames
        of all seeds share one structure, so
        :func:`repro.analysis.aggregate.aggregate_figures` can fold them
        into the published mean ± CI figure.
        """

        definition = _figure_def(plan.figure_id)
        meta = plan.meta
        mixes = meta["mixes"]
        metric = definition.metric
        normaliser = definition.normaliser

        def value(mix_name: str, mechanism: str, nrh: int,
                  breakhammer: bool):
            """The metric of one run: a number, or a latency curve."""

            stats = self.run(mix_name, mechanism, nrh, breakhammer, seed)
            if metric == "preventive_actions":
                return stats.preventive_actions
            if metric == "dram_energy":
                return stats.energy_mj
            mix = self.mix(mix_name, seed)
            if metric == "weighted_speedup":
                return self.benign_weighted_speedup(stats, mix)
            if metric == "max_slowdown":
                return self.benign_max_slowdown(stats, mix)
            return stats.latency_curve(mix.benign_threads,
                                       points=tuple(meta["points"]))

        def ratio(mix_name: str, mechanism: str, nrh: int,
                  breakhammer: bool) -> float:
            numerator = value(mix_name, mechanism, nrh, breakhammer)
            if normaliser == "no_mitigation":
                reference = value(mix_name, "none", self.spec.nrh_default,
                                  False)
            elif normaliser == "without_bh":
                reference = value(mix_name, mechanism, nrh, False)
            else:
                return numerator
            return numerator / max(1e-9, reference)

        def fold(values: List[float]) -> float:
            if definition.fold == "geomean":
                return geometric_mean([max(1e-9, v) for v in values])
            return sum(values) / len(values)

        def series_values(mechanism: str, breakhammer: bool) -> List[float]:
            if definition.x_axis == "mix":
                ratios = [ratio(mix, mechanism, meta["nrh"], breakhammer)
                          for mix in mixes]
                return ratios + [fold(ratios)]
            if definition.x_axis == "percentile":
                curves = [value(mix, mechanism, meta["nrh"], breakhammer)
                          for mix in mixes]
                return [fold([curve[p] for curve in curves])
                        for p in meta["points"]]
            values = [
                fold([ratio(mix, mechanism, nrh, breakhammer)
                      for mix in mixes])
                for nrh in meta["sweep"]
            ]
            if normaliser == "reference_nrh":
                reference = max(1.0, fold([
                    value(mix, mechanism, meta["reference_nrh"], False)
                    for mix in mixes
                ]))
                values = [v / reference for v in values]
            return values

        if definition.x_axis == "mix":
            x_values = list(mixes) + ["geomean"]
        elif definition.x_axis == "nrh":
            x_values = list(meta["sweep"])
        else:
            x_values = list(meta["points"])
        figure = FigureData(
            figure_id=plan.figure_id,
            title=definition.title,
            x_label=definition.x_axis,
            y_label=metric if normaliser is None else "normalized_" + metric,
            x_values=x_values,
        )
        for label, mechanism, breakhammer in _series(definition, meta):
            figure.add_series(label, series_values(mechanism, breakhammer))
        return figure

    def _figure(self, figure_id: str, **kwargs) -> FigureData:
        """Resolve a figure's plan and fold its per-seed frames."""

        plan = self.figure_plan(figure_id, **kwargs)
        self.resolve_plan(plan)
        return aggregate_figures(
            [self.figure_frame(plan, seed) for seed in plan.seeds]
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

    # ------------------------------------------------------------------ #
    # Figures 2 and 6-18: one FIGURE_DEFS entry each
    # ------------------------------------------------------------------ #
    def figure2(self, mechanisms: Optional[Sequence[str]] = None,
                mixes: Optional[Sequence[str]] = None) -> FigureData:
        return self._figure("fig2", mechanisms=mechanisms, mixes=mixes)

    def figure6(self, nrh: Optional[int] = None,
                mixes: Optional[Sequence[str]] = None,
                mechanisms: Optional[Sequence[str]] = None) -> FigureData:
        return self._figure("fig6", nrh=nrh, mixes=mixes,
                            mechanisms=mechanisms)

    def figure7(self, nrh: Optional[int] = None,
                mixes: Optional[Sequence[str]] = None,
                mechanisms: Optional[Sequence[str]] = None) -> FigureData:
        return self._figure("fig7", nrh=nrh, mixes=mixes,
                            mechanisms=mechanisms)

    def figure8(self, mechanisms: Optional[Sequence[str]] = None,
                mixes: Optional[Sequence[str]] = None) -> FigureData:
        return self._figure("fig8", mechanisms=mechanisms, mixes=mixes)

    def figure9(self, mechanisms: Optional[Sequence[str]] = None,
                mixes: Optional[Sequence[str]] = None) -> FigureData:
        return self._figure("fig9", mechanisms=mechanisms, mixes=mixes)

    def figure10(self, mechanisms: Optional[Sequence[str]] = None,
                 mixes: Optional[Sequence[str]] = None) -> FigureData:
        return self._figure("fig10", mechanisms=mechanisms, mixes=mixes)

    def figure11(self, nrh: Optional[int] = None,
                 mechanisms: Optional[Sequence[str]] = None,
                 mixes: Optional[Sequence[str]] = None,
                 points: Sequence[int] = LATENCY_PERCENTILES) -> FigureData:
        return self._figure("fig11", nrh=nrh, mechanisms=mechanisms,
                            mixes=mixes, points=points)

    def figure12(self, mechanisms: Optional[Sequence[str]] = None,
                 mixes: Optional[Sequence[str]] = None) -> FigureData:
        return self._figure("fig12", mechanisms=mechanisms, mixes=mixes)

    def figure13(self, nrh: Optional[int] = None,
                 mixes: Optional[Sequence[str]] = None,
                 mechanisms: Optional[Sequence[str]] = None) -> FigureData:
        return self._figure("fig13", nrh=nrh, mixes=mixes,
                            mechanisms=mechanisms)

    def figure14(self, nrh: Optional[int] = None,
                 mixes: Optional[Sequence[str]] = None,
                 mechanisms: Optional[Sequence[str]] = None) -> FigureData:
        return self._figure("fig14", nrh=nrh, mixes=mixes,
                            mechanisms=mechanisms)

    def figure15(self, mechanisms: Optional[Sequence[str]] = None,
                 mixes: Optional[Sequence[str]] = None) -> FigureData:
        return self._figure("fig15", mechanisms=mechanisms, mixes=mixes)

    def figure16(self, mechanisms: Optional[Sequence[str]] = None,
                 mixes: Optional[Sequence[str]] = None) -> FigureData:
        return self._figure("fig16", mechanisms=mechanisms, mixes=mixes)

    def figure17(self, nrh: Optional[int] = None,
                 mechanisms: Optional[Sequence[str]] = None,
                 mixes: Optional[Sequence[str]] = None,
                 points: Sequence[int] = LATENCY_PERCENTILES) -> FigureData:
        return self._figure("fig17", nrh=nrh, mechanisms=mechanisms,
                            mixes=mixes, points=points)

    def figure18(self, mechanisms: Optional[Sequence[str]] = None,
                 mixes: Optional[Sequence[str]] = None) -> FigureData:
        return self._figure("fig18", mechanisms=mechanisms, mixes=mixes)

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

        nrh_values = list(nrh_values or (self.spec.nrh_sweep[0],
                                         self.spec.nrh_default,
                                         self.spec.nrh_low))
        thresholds = list(threat_thresholds)

        def ws_for(mix_name: str, nrh: int, threshold: float,
                   seed: int) -> float:
            mix = self.mix(mix_name, seed)
            config = self._base_system.with_(
                mitigation=mechanism, nrh=nrh, breakhammer_enabled=True,
                breakhammer=dataclasses.replace(
                    self._base_system.breakhammer, threat_threshold=threshold
                ),
            )
            simulator = Simulator(
                config, mix.traces,
                self.spec.simulation_config(),
                attacker_threads=mix.attacker_threads,
            )
            result = simulator.run()
            self.runs_executed += 1
            return self.benign_weighted_speedup(result.stats, mix)

        attack_mix = self.spec.attack_mixes[0]
        benign_mix = self.spec.benign_mixes[0]

        def frame(seed: int) -> FigureData:
            figure = FigureData(
                figure_id="fig19",
                title="Sensitivity to TH_threat (weighted speedup "
                      "normalised to the largest threshold)",
                x_label="th_threat",
                y_label="normalized_weighted_speedup",
                x_values=thresholds,
            )
            for nrh in nrh_values:
                for scenario, mix_name in (("attack", attack_mix),
                                           ("benign", benign_mix)):
                    raw = [ws_for(mix_name, nrh, th, seed)
                           for th in thresholds]
                    reference = max(1e-9, raw[-1])
                    figure.add_series(
                        f"{scenario}_nrh{nrh}", [v / reference for v in raw]
                    )
            return figure

        return aggregate_figures([frame(seed) for seed in self.spec.seeds])

    # ------------------------------------------------------------------ #
    # Tables
    # ------------------------------------------------------------------ #
    def table1(self) -> TableData:
        """Simulated system configuration (paper Table 1)."""

        config = self.system_config("graphene", self.spec.nrh_default, True)
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

        mix_names = set(self.spec.benign_mixes) | set(self.spec.attack_mixes)
        traces: List[Trace] = []
        seen = set()
        for name in sorted(mix_names):
            for trace in self.mix(name, self.spec.seeds[0]).traces:
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
        nrh = nrh or self.spec.nrh_low
        mixes = tuple(self.spec.attack_mixes)
        return SweepPlan(
            figure_id="headline",
            runs=tuple((mix, mechanism, nrh, breakhammer)
                       for mechanism in self.spec.mechanisms
                       for breakhammer in (False, True)
                       for mix in mixes),
            alone_mixes=mixes,
            seeds=tuple(self.spec.seeds),
            meta=dict(nrh=nrh),
        )

    def headline_numbers(self, nrh: Optional[int] = None) -> Dict[str, float]:
        """Average benign speedup / action reduction with an attacker present.

        Mirrors the abstract's "improves performance by 90.1% and reduces
        DRAM energy by 55.7% on average across workloads with a malicious
        application" claim structure (the magnitudes depend on scale).
        """

        plan = self.headline_plan(nrh)
        self.resolve_plan(plan)
        return aggregate_headlines(
            [self._headline_frame(plan, seed) for seed in plan.seeds]
        )

    def _headline_frame(self, plan: SweepPlan, seed: int) -> Dict[str, float]:
        """One seed's headline numbers, from warm caches (see figure_frame)."""

        nrh = plan.meta["nrh"]
        speedups: List[float] = []
        energy_ratios: List[float] = []
        action_ratios: List[float] = []
        for mechanism in self.spec.mechanisms:
            for mix_name in self.spec.attack_mixes:
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
