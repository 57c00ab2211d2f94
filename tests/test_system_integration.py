"""End-to-end integration tests: the full system reproduces the paper's
qualitative behaviour on small inputs.

These tests exercise the headline claims:

* C2a — a hammering thread triggers many preventive actions and degrades
  benign performance; BreakHammer identifies and throttles it and benign
  performance recovers;
* C3  — with only benign applications BreakHammer does not hurt performance
  and (almost) never throttles anyone;
* the BlockHammer comparison point blocks activations at low N_RH;
* the abstract's headline aggregates keep their directions at the smoke
  profile: benign speedup above 1, energy and preventive actions not
  worse.
"""

import pytest

from repro.api import ExperimentSpec, Session
from repro.sim.config import SimulationConfig, SystemConfig
from repro.sim.simulator import Simulator, run_simulation
from repro.sim.system import System
from repro.workloads.attacker import AttackerConfig
from repro.workloads.mixes import make_mix

CYCLES = 12_000


def build(mechanism, nrh, breakhammer, mix_name="HHMA", cycles=CYCLES,
          seed=0):
    config = SystemConfig.fast_profile(
        mitigation=mechanism, nrh=nrh, breakhammer_enabled=breakhammer,
        sim_cycles=cycles,
    )
    mix = make_mix(
        mix_name, device=config.device, entries_per_core=3000,
        attacker_entries=6000, seed=seed,
        attacker_config=AttackerConfig(entries=6000, seed=seed),
    )
    simulator = Simulator(config, mix.traces,
                          SimulationConfig(max_cycles=cycles),
                          attacker_threads=mix.attacker_threads)
    return simulator, mix


def benign_ipc(stats, mix):
    return sum(stats.ipc_by_thread[t] for t in mix.benign_threads)


class TestSystemConstruction:
    def test_trace_count_must_match_cores(self):
        config = SystemConfig.fast_profile()
        mix = make_mix("HH", device=config.device, entries_per_core=100)
        with pytest.raises(ValueError):
            System(config.with_(num_cores=4), mix.traces)

    def test_breakhammer_wired_as_observer_and_quota_driver(self):
        config = SystemConfig.fast_profile(mitigation="para", nrh=64,
                                           breakhammer_enabled=True)
        mix = make_mix("LLLA", device=config.device, entries_per_core=100,
                       attacker_entries=100)
        system = System(config, mix.traces)
        assert system.breakhammer is not None
        assert system.breakhammer in system.controller.observers
        assert system.breakhammer.throttler.full_quota == config.mshr_entries

    def test_rega_adjusts_device_timing(self):
        config = SystemConfig.fast_profile(mitigation="rega", nrh=64)
        mix = make_mix("LLLL", device=config.device, entries_per_core=100)
        system = System(config, mix.traces)
        assert system.device.timings.trc > config.device.timings.trc

    def test_run_simulation_wrapper(self):
        config = SystemConfig.fast_profile()
        mix = make_mix("LLLL", device=config.device, entries_per_core=200)
        result = run_simulation(config, mix.traces,
                                SimulationConfig(max_cycles=2000))
        assert result.stats.cycles == 2000
        assert result.stats.total_instructions > 0


class TestAttackScenario:
    @pytest.fixture(scope="class")
    def runs(self):
        """One attack mix, RFM at a low threshold, with and without BH."""

        results = {}
        for bh in (False, True):
            simulator, mix = build("rfm", nrh=256, breakhammer=bh)
            results[bh] = (simulator.run().stats, mix)
        return results

    def test_attacker_triggers_preventive_actions(self, runs):
        stats, _ = runs[False]
        assert stats.preventive_actions > 50

    def test_attacker_dominates_activations(self, runs):
        stats, mix = runs[False]
        attacker = mix.attacker_threads[0]
        attacker_acts = stats.activations_by_thread.get(attacker, 0)
        benign_max = max(
            stats.activations_by_thread.get(t, 0) for t in mix.benign_threads
        )
        assert attacker_acts > benign_max

    def test_breakhammer_identifies_and_throttles_attacker(self, runs):
        stats, mix = runs[True]
        attacker = mix.attacker_threads[0]
        bh_stats = stats.breakhammer_stats["stats"]
        assert bh_stats["suspects_by_thread"].get(attacker, 0) >= 1
        throttler = stats.breakhammer_stats["throttler"]
        assert throttler["threads"][attacker]["times_throttled"] >= 1

    def test_breakhammer_improves_benign_performance(self, runs):
        base_stats, mix = runs[False]
        bh_stats, _ = runs[True]
        assert benign_ipc(bh_stats, mix) > benign_ipc(base_stats, mix)

    def test_breakhammer_reduces_attacker_progress(self, runs):
        base_stats, mix = runs[False]
        bh_stats, _ = runs[True]
        attacker = mix.attacker_threads[0]
        assert bh_stats.activations_by_thread.get(attacker, 0) < \
            base_stats.activations_by_thread.get(attacker, 0)

    def test_breakhammer_reduces_preventive_actions_per_useful_work(self, runs):
        """Throttling the attacker lets benign threads run faster, so the
        absolute action count may not fall in a fixed-cycle window; the
        paper-relevant quantity is preventive work per unit of benign
        progress, which must drop."""

        base_stats, mix = runs[False]
        bh_stats, _ = runs[True]

        def actions_per_benign_kiloinstruction(stats):
            benign_insts = sum(
                stats.instructions_by_thread[t] for t in mix.benign_threads
            )
            return 1000.0 * stats.preventive_actions / max(1, benign_insts)

        assert actions_per_benign_kiloinstruction(bh_stats) < \
            actions_per_benign_kiloinstruction(base_stats)

    def test_energy_not_increased_by_breakhammer(self, runs):
        base_stats, _ = runs[False]
        bh_stats, _ = runs[True]
        assert bh_stats.energy_mj <= base_stats.energy_mj * 1.05


class TestBenignScenario:
    @pytest.fixture(scope="class")
    def runs(self):
        results = {}
        for bh in (False, True):
            simulator, mix = build("graphene", nrh=1024, breakhammer=bh,
                                   mix_name="MMLL")
            results[bh] = (simulator.run().stats, mix)
        return results

    def test_no_attacker_no_meaningful_throttling(self, runs):
        stats, _ = runs[True]
        throttler = stats.breakhammer_stats["throttler"]
        throttled_windows = sum(
            t["windows_as_suspect"] for t in throttler["threads"]
        )
        assert throttled_windows <= 2  # paper: benign false positives are rare

    def test_benign_performance_not_degraded(self, runs):
        base_stats, mix = runs[False]
        bh_stats, _ = runs[True]
        assert benign_ipc(bh_stats, mix) >= 0.93 * benign_ipc(base_stats, mix)

    def test_all_cores_make_progress(self, runs):
        stats, mix = runs[False]
        for thread in mix.benign_threads:
            assert stats.instructions_by_thread[thread] > 100


class TestMitigationOverheadTrend:
    def test_rfm_overhead_grows_as_nrh_decreases(self):
        """Fig. 2 trend: lower N_RH → more preventive work → lower IPC."""

        ipcs = {}
        actions = {}
        for nrh in (4096, 64):
            simulator, mix = build("rfm", nrh=nrh, breakhammer=False)
            stats = simulator.run().stats
            ipcs[nrh] = benign_ipc(stats, mix)
            actions[nrh] = stats.preventive_actions
        assert actions[64] > actions[4096]
        assert ipcs[64] < ipcs[4096]

    def test_blockhammer_blocks_attacker_at_low_nrh(self):
        simulator, mix = build("blockhammer", nrh=64, breakhammer=False)
        stats = simulator.run().stats
        assert stats.blocked_activations > 0

    def test_instruction_limit_terminates_early(self):
        config = SystemConfig.fast_profile()
        mix = make_mix("LLLL", device=config.device, entries_per_core=200)
        simulator = Simulator(
            config, mix.traces,
            SimulationConfig(max_cycles=50_000, instruction_limit=500),
        )
        result = simulator.run()
        assert result.finished_by_instruction_limit
        assert result.stats.cycles < 50_000


class TestHeadlineDirections:
    def test_smoke_profile_headline_numbers(self):
        with Session(ExperimentSpec.smoke(), jobs=1, cache_dir="") as session:
            numbers = session.headline_numbers()
        # The bounds of benchmarks/bench_headline_numbers.py.
        assert numbers["mean_benign_speedup"] > 1.0
        assert numbers["mean_energy_ratio"] <= 1.05
        assert numbers["mean_preventive_action_ratio"] <= 1.1
