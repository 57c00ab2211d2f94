"""The simulation driver.

:class:`Simulator` advances a :class:`repro.sim.system.System` until either
the cycle budget is exhausted or every *benign* core has retired its
instruction quota (attacker cores are never waited for — the paper's
methodology, footnote 9: the attacker's progress is irrelevant and
BreakHammer slows it down dramatically).

Two interchangeable engines drive the run, selected by
:attr:`repro.sim.config.SimulationConfig.engine`:

* ``"cycle"`` — the reference engine: one :meth:`System.tick` per cycle.
* ``"fast"``  — the event-driven fast-forward engine: after each tick the
  system reports the next cycle at which *anything* can act (via
  ``System.next_event_cycle``) and the simulator jumps straight there.
  Cycles in which every core is stalled and the memory controller is
  timing-blocked are skipped entirely, and within a simulated cycle a core
  whose refused access would be refused again is not ticked
  (``System.tick``).  Both engines produce identical
  :class:`repro.sim.stats.RunStatistics`.

Warmup semantics: when ``warmup_cycles > 0``, core, LLC, controller,
latency, and energy counters are snapshotted at the warmup boundary and
subtracted at collection time, so every reported metric (IPC, MPKI, miss
rate, latency percentiles, energy, activation counts) describes only the
measured interval.  If the run ends before the warmup boundary is reached,
no subtraction happens and the full run is reported.

The result is a :class:`repro.sim.stats.RunStatistics` snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.cpu.trace import Trace
from repro.sim.config import SimulationConfig, SystemConfig
from repro.sim.stats import RunStatistics
from repro.sim.system import System


@dataclass
class SimulationResult:
    """A finished run: the system (for inspection) plus its statistics."""

    system: System
    stats: RunStatistics
    finished_by_instruction_limit: bool

    @property
    def cycles(self) -> int:
        return self.stats.cycles


class Simulator:
    """Runs one system to completion."""

    def __init__(self, system_config: SystemConfig,
                 traces: Sequence[Trace],
                 sim_config: Optional[SimulationConfig] = None,
                 attacker_threads: Sequence[int] = ()) -> None:
        self.system_config = system_config
        self.sim_config = sim_config or SimulationConfig()
        self.traces = list(traces)
        self.attacker_threads = set(attacker_threads)
        self.system = System(system_config, self.traces)
        # Counter snapshot taken at the warmup boundary (None until then).
        self._warmup_baseline: Optional[Dict[str, object]] = None
        # Number of System.tick calls the run performed; the fast engine's
        # speedup is visible as ticks_executed << stats.cycles.
        self.ticks_executed = 0

    # ------------------------------------------------------------------ #
    @property
    def benign_threads(self) -> List[int]:
        return [
            i for i in range(self.system.num_cores)
            if i not in self.attacker_threads
        ]

    def _benign_done(self) -> bool:
        limit = self.sim_config.instruction_limit
        if limit is None:
            return False
        return all(
            self.system.core(i).reached(limit) for i in self.benign_threads
        )

    # ------------------------------------------------------------------ #
    def run(self) -> SimulationResult:
        """Execute the run and collect statistics."""

        if self.sim_config.engine == "fast":
            cycle, finished_early = self._run_fast()
        else:
            cycle, finished_early = self._run_cycle()
        stats = self.collect_statistics(cycle)
        return SimulationResult(
            system=self.system,
            stats=stats,
            finished_by_instruction_limit=finished_early,
        )

    def _run_cycle(self) -> tuple:
        """Reference engine: tick every cycle."""

        warmup = self.sim_config.warmup_cycles
        cycle = 0
        for cycle in range(1, self.sim_config.max_cycles + 1):
            self.system.tick(cycle)
            self.ticks_executed += 1
            if warmup and cycle == warmup:
                self._warmup_baseline = self._snapshot_counters()
            if (
                self.sim_config.stop_when_benign_done
                and self._benign_done()
            ):
                return cycle, True
        return cycle, False

    def _run_fast(self) -> tuple:
        """Event-driven engine: jump to the next cycle anything can act.

        The jump target is ``System.next_event_cycle()``, clamped so the
        warmup boundary and the final cycle are always simulated — both are
        observation points the cycle engine hits too.  Every simulated
        cycle is ticked by the exact same ``System.tick`` the cycle engine
        uses, so the two engines can only differ by the *skipped* cycles,
        which the system has proven inert, and by the skipped ticks of
        refused cores, whose stall counts are flushed at the stop cycle.
        """

        max_cycles = self.sim_config.max_cycles
        warmup = self.sim_config.warmup_cycles
        if (
            self.sim_config.stop_when_benign_done
            and self.sim_config.instruction_limit is not None
        ):
            self.system.track_instruction_limit(
                self.sim_config.instruction_limit, self.benign_threads
            )
        self.system.skip_refused_cores = True
        cycle = 0
        finished_early = False
        while cycle < max_cycles:
            if cycle == 0:
                next_cycle = 1
            else:
                next_cycle = max(self.system.next_event_cycle(), cycle + 1)
            if warmup and cycle < warmup:
                next_cycle = min(next_cycle, warmup)
            cycle = min(next_cycle, max_cycles)
            self.system.tick(cycle)
            self.ticks_executed += 1
            if warmup and cycle == warmup:
                self._warmup_baseline = self._snapshot_counters()
            if (
                self.sim_config.stop_when_benign_done
                and self._benign_done()
            ):
                finished_early = True
                break
        for core in self.system.cores:
            core.flush_stall_accounting(cycle)
        return cycle, finished_early

    # ------------------------------------------------------------------ #
    def _snapshot_counters(self) -> Dict[str, object]:
        """Capture the performance counters warmup must not pollute.

        Covers core, LLC, controller, latency, and energy counters — the
        inputs to every performance metric.  Mechanism diagnostics
        (``mitigation_stats``, ``breakhammer_stats``, ``mshr_stats``)
        intentionally keep whole-run values: they describe the state the
        warmup interval built up (blacklists, score counters, quotas), not
        a rate over the measured interval.
        """

        system = self.system
        controller = system.controller
        return {
            "retired_instructions": {
                core.core_id: core.stats.retired_instructions
                for core in system.cores
            },
            "retired_memory_accesses": {
                core.core_id: core.stats.retired_memory_accesses
                for core in system.cores
            },
            "llc_hits": system.llc.stats.hits,
            "llc_misses": system.llc.stats.misses,
            "llc_misses_by_thread": dict(system.llc.stats.misses_by_thread),
            "read_latency_count": len(controller.stats.read_latencies),
            "latency_count_by_thread": {
                thread: len(values)
                for thread, values in controller.stats.latency_by_thread.items()
            },
            "activations": controller.stats.activations,
            "activations_by_thread": dict(controller.stats.activations_by_thread),
            "row_hits": controller.stats.row_hits,
            "row_misses": controller.stats.row_misses,
            "row_conflicts": controller.stats.row_conflicts,
            "refreshes": controller.stats.refreshes,
            "preventive_actions": controller.stats.preventive_actions,
            "preventive_commands": controller.stats.preventive_commands,
            "blocked_activations": controller.stats.blocked_activations,
            "energy_counts": dict(controller.energy.command_counts),
        }

    # ------------------------------------------------------------------ #
    def collect_statistics(self, cycles: int) -> RunStatistics:
        system = self.system
        controller = system.controller
        base = self._warmup_baseline
        if base is not None:
            effective_cycles = max(1, cycles - self.sim_config.warmup_cycles)
        else:
            # The boundary was never crossed (warmup disabled, or the run
            # ended early): report the full run.
            effective_cycles = max(1, cycles)

        def delta(key: str, current: int) -> int:
            return current - (base[key] if base is not None else 0)

        ipc_by_thread: Dict[int, float] = {}
        instructions: Dict[int, int] = {}
        memory_accesses: Dict[int, int] = {}
        mpki: Dict[int, float] = {}
        base_instr = base["retired_instructions"] if base is not None else {}
        base_mem = base["retired_memory_accesses"] if base is not None else {}
        base_misses = base["llc_misses_by_thread"] if base is not None else {}
        for core in system.cores:
            retired = (
                core.stats.retired_instructions
                - base_instr.get(core.core_id, 0)
            )
            instructions[core.core_id] = retired
            memory_accesses[core.core_id] = (
                core.stats.retired_memory_accesses
                - base_mem.get(core.core_id, 0)
            )
            ipc_by_thread[core.core_id] = retired / effective_cycles
            misses = (
                system.llc.stats.misses_by_thread.get(core.core_id, 0)
                - base_misses.get(core.core_id, 0)
            )
            mpki[core.core_id] = 1000.0 * misses / max(1, retired)

        llc_hits = delta("llc_hits", system.llc.stats.hits)
        llc_misses = delta("llc_misses", system.llc.stats.misses)
        llc_accesses = llc_hits + llc_misses
        llc_miss_rate = llc_misses / llc_accesses if llc_accesses else 0.0

        latency_start = base["read_latency_count"] if base is not None else 0
        base_latency_counts = (
            base["latency_count_by_thread"] if base is not None else {}
        )
        read_latencies = list(controller.stats.read_latencies[latency_start:])
        latency_by_thread = {
            thread: list(values[base_latency_counts.get(thread, 0):])
            for thread, values in controller.stats.latency_by_thread.items()
        }

        if base is not None:
            energy = controller.energy.report_since(
                base["energy_counts"], effective_cycles
            )
        else:
            energy = controller.energy.report(cycles)

        return RunStatistics(
            cycles=cycles,
            ipc_by_thread=ipc_by_thread,
            instructions_by_thread=instructions,
            memory_accesses_by_thread=memory_accesses,
            llc_miss_rate=llc_miss_rate,
            llc_mpki_by_thread=mpki,
            read_latencies=read_latencies,
            latency_by_thread=latency_by_thread,
            activations=delta("activations", controller.stats.activations),
            activations_by_thread={
                thread: count - (
                    base["activations_by_thread"].get(thread, 0)
                    if base is not None else 0
                )
                for thread, count in
                controller.stats.activations_by_thread.items()
            },
            row_hits=delta("row_hits", controller.stats.row_hits),
            row_misses=delta("row_misses", controller.stats.row_misses),
            row_conflicts=delta("row_conflicts", controller.stats.row_conflicts),
            refreshes=delta("refreshes", controller.stats.refreshes),
            preventive_actions=delta(
                "preventive_actions", controller.stats.preventive_actions
            ),
            preventive_commands=delta(
                "preventive_commands", controller.stats.preventive_commands
            ),
            blocked_activations=delta(
                "blocked_activations", controller.stats.blocked_activations
            ),
            energy=energy,
            mitigation_stats=system.mitigation.stats(),
            breakhammer_stats=(
                system.breakhammer.snapshot() if system.breakhammer else None
            ),
            mshr_stats=system.mshrs.snapshot(),
        )


def run_simulation(system_config: SystemConfig, traces: Sequence[Trace],
                   sim_config: Optional[SimulationConfig] = None,
                   attacker_threads: Sequence[int] = ()) -> SimulationResult:
    """One-call convenience wrapper used by examples and the harness."""

    simulator = Simulator(system_config, traces, sim_config, attacker_threads)
    return simulator.run()
