"""The simulation driver.

:class:`Simulator` advances a :class:`repro.sim.system.System` for exactly
``SimulationConfig.max_cycles`` cycles: every run is its full cycle
budget, with no warmup window and no early stop.  The paper runs each core
for 100 M instructions; a reproduced run is a short fixed horizon instead,
and the scaled BreakHammer parameters are tied to it
(``SystemConfig.fast_profile`` sets the throttling window ``TH_window`` to
a quarter of the budget), so every run of a profile spans the same
throttling windows.

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

The result is a :class:`repro.sim.stats.RunStatistics` snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.cpu.trace import Trace
from repro.sim.config import SimulationConfig, SystemConfig
from repro.sim.stats import RunStatistics
from repro.sim.system import System


@dataclass
class SimulationResult:
    """A finished run: the system (for inspection) plus its statistics."""

    system: System
    stats: RunStatistics


class Simulator:
    """Runs one system for its full cycle budget.

    ``attacker_threads`` is accepted and ignored: every core runs the whole
    budget, attacker or not.
    """

    def __init__(self, system_config: SystemConfig,
                 traces: Sequence[Trace],
                 sim_config: Optional[SimulationConfig] = None,
                 attacker_threads: Sequence[int] = ()) -> None:
        self.system_config = system_config
        self.sim_config = sim_config or SimulationConfig()
        self.traces = list(traces)
        self.system = System(system_config, self.traces)
        # Number of System.tick calls the run performed; the fast engine's
        # speedup is visible as ticks_executed << stats.cycles.
        self.ticks_executed = 0

    # ------------------------------------------------------------------ #
    def run(self) -> SimulationResult:
        """Execute the run and collect statistics."""

        if self.sim_config.engine == "fast":
            self._run_fast()
        else:
            self._run_cycle()
        return SimulationResult(
            system=self.system,
            stats=self.collect_statistics(self.sim_config.max_cycles),
        )

    def _run_cycle(self) -> None:
        """Reference engine: tick every cycle."""

        for cycle in range(1, self.sim_config.max_cycles + 1):
            self.system.tick(cycle)
            self.ticks_executed += 1

    def _run_fast(self) -> None:
        """Event-driven engine: jump to the next cycle anything can act.

        The jump target is ``System.next_event_cycle()``, clamped so the
        final cycle is always simulated — an observation point the cycle
        engine hits too.  Every simulated cycle is ticked by the exact same
        ``System.tick`` the cycle engine uses, so the two engines can only
        differ by the *skipped* cycles, which the system has proven inert,
        and by the skipped ticks of refused cores, whose stall counts are
        flushed at the final cycle.
        """

        max_cycles = self.sim_config.max_cycles
        self.system.skip_refused_cores = True
        cycle = 0
        while cycle < max_cycles:
            if cycle == 0:
                next_cycle = 1
            else:
                next_cycle = max(self.system.next_event_cycle(), cycle + 1)
            cycle = min(next_cycle, max_cycles)
            self.system.tick(cycle)
            self.ticks_executed += 1
        for core in self.system.cores:
            core.flush_stall_accounting(cycle)

    # ------------------------------------------------------------------ #
    def collect_statistics(self, cycles: int) -> RunStatistics:
        system = self.system
        controller = system.controller

        ipc_by_thread: Dict[int, float] = {}
        instructions: Dict[int, int] = {}
        memory_accesses: Dict[int, int] = {}
        mpki: Dict[int, float] = {}
        for core in system.cores:
            retired = core.stats.retired_instructions
            instructions[core.core_id] = retired
            memory_accesses[core.core_id] = \
                core.stats.retired_memory_accesses
            ipc_by_thread[core.core_id] = retired / cycles
            misses = system.llc.stats.misses_by_thread.get(core.core_id, 0)
            mpki[core.core_id] = 1000.0 * misses / max(1, retired)

        llc_hits = system.llc.stats.hits
        llc_misses = system.llc.stats.misses
        llc_accesses = llc_hits + llc_misses
        llc_miss_rate = llc_misses / llc_accesses if llc_accesses else 0.0

        return RunStatistics(
            cycles=cycles,
            ipc_by_thread=ipc_by_thread,
            instructions_by_thread=instructions,
            memory_accesses_by_thread=memory_accesses,
            llc_miss_rate=llc_miss_rate,
            llc_mpki_by_thread=mpki,
            read_latencies=list(controller.stats.read_latencies),
            latency_by_thread={
                thread: list(values)
                for thread, values in controller.stats.latency_by_thread.items()
            },
            activations=controller.stats.activations,
            activations_by_thread=dict(controller.stats.activations_by_thread),
            row_hits=controller.stats.row_hits,
            row_misses=controller.stats.row_misses,
            row_conflicts=controller.stats.row_conflicts,
            refreshes=controller.stats.refreshes,
            preventive_actions=controller.stats.preventive_actions,
            preventive_commands=controller.stats.preventive_commands,
            blocked_activations=controller.stats.blocked_activations,
            energy=controller.energy.report(cycles),
            mitigation_stats=system.mitigation.stats(),
            breakhammer_stats=(
                system.breakhammer.snapshot() if system.breakhammer else None
            ),
            mshr_stats=system.mshrs.snapshot(),
        )
