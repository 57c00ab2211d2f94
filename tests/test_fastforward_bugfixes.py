"""Regression tests for the fast-forward engine's accounting bugfixes.

Covers two latent bugs fixed alongside the event-driven engine:

* BreakHammer's window clock advanced at most one window per ``tick`` call,
  so jumping the simulation over several boundaries lost windows;
* the uncached-MSHR ``merged_accesses = -1`` sentinel was clobbered by the
  first merge, so a cached load merging into an uncached fetch was woken
  without the line ever being installed in the LLC.

Plus the whole-run accounting of the statistics (every run is its full
cycle budget) and the maintained per-thread MSHR occupancy counters that
replaced the O(entries) scan.
"""

from __future__ import annotations

import random

from repro.core.breakhammer import BreakHammer, BreakHammerConfig
from repro.cpu.mshr import MshrFile
from repro.cpu.trace import Trace, TraceEntry
from repro.sim.config import SimulationConfig, SystemConfig
from repro.sim.simulator import Simulator
from repro.sim.system import System
from repro.workloads.attacker import AttackerConfig
from repro.workloads.mixes import make_mix


class TestBreakHammerWindowClock:
    def _breakhammer(self) -> BreakHammer:
        # 1000-cycle throttling window (1 ns cycle, 1e-3 ms window).
        return BreakHammer(
            num_threads=2,
            config=BreakHammerConfig(window_ms=1e-3),
            cycle_time_ns=1.0,
        )

    def test_catches_up_over_multiple_windows(self):
        bh = self._breakhammer()
        assert bh.window_cycles == 1000
        ended = bh.tick(3_500)  # jumped over the 1000/2000/3000 boundaries
        assert ended == 3
        assert bh.stats.windows_elapsed == 3
        assert bh.next_event_cycle() == 4_000

    def test_no_window_ends_before_boundary(self):
        bh = self._breakhammer()
        assert bh.tick(999) == 0
        assert bh.tick(1_000) == 1
        assert bh.tick(1_001) == 0
        assert bh.stats.windows_elapsed == 1


class TestWholeRunAccounting:
    def test_statistics_cover_the_whole_run(self):
        """Counters and IPC describe every cycle of the budget."""

        cycles = 2_000
        config = SystemConfig.fast_profile(sim_cycles=cycles)
        mix = make_mix(
            "MMLL", device=config.device, mapping=config.mapping,
            entries_per_core=1_000, attacker_entries=1_000, seed=0,
            attacker_config=AttackerConfig(entries=1_000, seed=0),
        )
        simulator = Simulator(config, mix.traces,
                              SimulationConfig(max_cycles=cycles))
        stats = simulator.run().stats
        controller = simulator.system.controller
        assert stats.cycles == cycles
        assert stats.activations == controller.stats.activations
        assert stats.read_latencies == controller.stats.read_latencies
        for core in simulator.system.cores:
            assert stats.instructions_by_thread[core.core_id] == \
                core.stats.retired_instructions
            assert stats.ipc_by_thread[core.core_id] == \
                core.stats.retired_instructions / cycles


class TestUncachedMshrEntries:
    ADDRESS = 1 << 14

    def _system(self, bypass_second_core: bool) -> System:
        config = SystemConfig.fast_profile(sim_cycles=2_000).with_(num_cores=2)
        uncached_trace = Trace(
            [TraceEntry(0, self.ADDRESS, False, bypass_cache=True)],
            name="uncached", loop=False,
        )
        second = Trace(
            [TraceEntry(0, self.ADDRESS, False,
                        bypass_cache=bypass_second_core)],
            name="second", loop=False,
        )
        return System(config, [uncached_trace, second])

    def _run_to_completion(self, system: System) -> None:
        cycle = 0
        while True:
            cycle += 1
            system.tick(cycle)
            if cycle > 10 and system.outstanding_work() == 0:
                break
            assert cycle < 5_000, "simulation did not drain"

    def test_pure_uncached_fetch_not_installed(self):
        system = self._system(bypass_second_core=True)
        self._run_to_completion(system)
        assert not system.llc.probe(self.ADDRESS)
        # Both cores were woken regardless.
        assert all(core.outstanding_loads == 0 for core in system.cores)

    def test_cached_merge_into_uncached_fetch_installs_line(self):
        system = self._system(bypass_second_core=False)
        self._run_to_completion(system)
        # The cached requester merged into the uncached fetch; its fill must
        # land in the LLC (the old sentinel lost this information).
        assert system.llc.probe(self.ADDRESS)
        assert all(core.outstanding_loads == 0 for core in system.cores)

    def test_merge_flag_semantics(self):
        mshrs = MshrFile(4, num_threads=2)
        entry = mshrs.allocate(0x40, 0, cycle=1, uncached=True)
        assert entry is not None and entry.uncached
        # An uncached merge keeps the entry uncached.
        mshrs.allocate(0x40, 1, cycle=2, uncached=True)
        assert entry.uncached
        # One cacheable merge is enough to make the fill installable.
        mshrs.allocate(0x40, 1, cycle=3, uncached=False)
        assert not entry.uncached
        assert entry.merged_accesses == 2


class TestMshrOccupancyCounters:
    def test_counters_match_brute_force_scan(self):
        rng = random.Random(0)
        mshrs = MshrFile(8, num_threads=3)
        lines = [line * 64 for line in range(12)]
        for step in range(2_000):
            line = rng.choice(lines)
            if rng.random() < 0.6:
                mshrs.allocate(line, rng.randrange(3), cycle=step)
            else:
                mshrs.release(line)
            for thread in range(3):
                brute = sum(
                    1 for entry in mshrs._entries.values()
                    if entry.thread_id == thread
                )
                assert mshrs.outstanding_for(thread) == brute

    def test_quota_still_enforced(self):
        mshrs = MshrFile(8, num_threads=2)
        mshrs.set_quota(0, 2)
        assert mshrs.allocate(0x00, 0, cycle=0) is not None
        assert mshrs.allocate(0x40, 0, cycle=0) is not None
        assert not mshrs.can_allocate(0)
        assert mshrs.allocate(0x80, 0, cycle=0) is None
        assert mshrs.stats_quota_rejections == 1
        # Releasing frees quota headroom again.
        mshrs.release(0x00)
        assert mshrs.can_allocate(0)
