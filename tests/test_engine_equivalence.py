"""Cycle-engine vs fast-forward engine equivalence.

The fast engine (``SimulationConfig(engine="fast")``) must be an *exact*
accelerator: it may skip cycles it can prove inert, but every
:class:`repro.sim.stats.RunStatistics` field — per-thread IPCs, latency
lists, activation counts, energy, BreakHammer counters — must come out
bit-for-bit identical to the reference cycle engine.  These tests pin it
on benign and hammering-attacker mixes, and also check the fast engine
actually fast-forwards where there is slack.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.dram.address import AddressMapper
from repro.dram.config import DeviceConfig
from repro.sim.config import SimulationConfig, SystemConfig
from repro.sim.simulator import Simulator
from repro.testing.scenarios import Scenario
from repro.workloads.attacker import AttackerConfig
from repro.workloads.mixes import make_mix

SIM_CYCLES = 6_000


def _mix(name: str, config: SystemConfig):
    return make_mix(
        name,
        device=config.device,
        mapping=config.mapping,
        entries_per_core=2_000,
        attacker_entries=3_000,
        seed=0,
        attacker_config=AttackerConfig(entries=3_000, seed=0),
    )


def _run(engine: str, mix_name: str, mechanism: str, breakhammer: bool,
         nrh=64):
    config = SystemConfig.fast_profile(
        mitigation=mechanism,
        nrh=nrh,
        breakhammer_enabled=breakhammer,
        sim_cycles=SIM_CYCLES,
    )
    mix = _mix(mix_name, config)
    simulator = Simulator(
        config, mix.traces,
        SimulationConfig(max_cycles=SIM_CYCLES, engine=engine),
    )
    result = simulator.run()
    return result, simulator


def _assert_identical(mix_name: str, mechanism: str, breakhammer: bool,
                      nrh=64):
    cycle_result, _ = _run("cycle", mix_name, mechanism, breakhammer, nrh)
    fast_result, fast_sim = _run("fast", mix_name, mechanism, breakhammer,
                                 nrh)
    assert dataclasses.asdict(cycle_result.stats) == \
        dataclasses.asdict(fast_result.stats)
    # Per-core introspection (including stall-cycle counters, which the
    # fast engine replays for skipped cycles) must match.
    assert [core.snapshot() for core in cycle_result.system.cores] == \
        [core.snapshot() for core in fast_result.system.cores]
    return cycle_result, fast_result, fast_sim


class TestEngineEquivalence:
    def test_benign_mix(self):
        _assert_identical("MMLL", "graphene", False)

    def test_hammering_attacker_mix(self):
        _assert_identical("HHMA", "graphene", True)

    def test_attacker_mix_with_rfm(self):
        _assert_identical("MMLA", "rfm", True)

    def test_rega_adjusted_timings(self):
        """REGA inflates tRAS/tRC instead of issuing blocking commands; the
        fast engine must honour the *adjusted* timings when computing its
        jump targets, and REGA's zero-command preventive actions must be
        scored identically by BreakHammer under both engines."""

        cycle_result, fast_result, _ = _assert_identical(
            "HHMA", "rega", True
        )
        mechanism_stats = cycle_result.stats.mitigation_stats
        assert mechanism_stats["timing_penalty_ns"] > 0
        assert cycle_result.stats.preventive_actions > 0
        # The adjusted device really is what both systems simulated.
        base = SystemConfig.fast_profile(mitigation="rega", nrh=64,
                                         sim_cycles=SIM_CYCLES)
        for result in (cycle_result, fast_result):
            assert result.system.device.timings.trc > base.device.timings.trc

    def test_multi_rank_refresh(self):
        """Both ranks' periodic refreshes must land on identical cycles.

        The fast engine treats every rank's next refresh deadline as an
        event; with the paper's two-rank device several tREFI windows
        elapse per run, so this pins per-rank refresh bookkeeping (issued
        and postponed counts), not just the aggregate REF count.
        """

        cycle_result, fast_result, _ = _assert_identical(
            "MMLA", "graphene", False
        )
        managers = [
            result.system.controller.refresh_manager
            for result in (cycle_result, fast_result)
        ]
        assert managers[0].config.ranks >= 2
        for state_cycle, state_fast in zip(managers[0].states,
                                           managers[1].states):
            assert state_cycle.issued_count == state_fast.issued_count
            assert state_cycle.postponed == state_fast.postponed
            assert state_cycle.next_refresh_cycle == \
                state_fast.next_refresh_cycle
            # Every rank actually refreshed during the run.
            assert state_cycle.issued_count > 0
        assert cycle_result.stats.refreshes >= 2 * managers[0].config.ranks

    def test_prac_backoff_storm(self):
        """Saturated attackers driving repeated alert_n back-offs.

        A four-attacker mix at a tiny threshold forces PRAC's back-off
        servicing over and over; every back-off blocks the bank with RFM
        commands, perturbing the controller's timing state the fast engine
        must reproduce exactly.  This was one of the two contract gaps
        ROADMAP listed as unproven.
        """

        cycle_result, _, _ = _assert_identical("AAAA", "prac", False, nrh=32)
        stats = cycle_result.stats.mitigation_stats
        # The storm really happened: dozens of back-offs, not a couple.
        assert stats["backoffs"] > 30
        assert cycle_result.stats.preventive_actions > 30

    def test_prac_backoff_storm_with_breakhammer(self):
        """The same storm with BreakHammer scoring every back-off."""

        cycle_result, _, _ = _assert_identical("HHAA", "prac", True, nrh=32)
        assert cycle_result.stats.mitigation_stats["backoffs"] > 10
        assert cycle_result.stats.breakhammer_stats is not None

    def test_fast_engine_skips_idle_cycles(self):
        """A single low-intensity core leaves slack the engine must use."""

        config = SystemConfig.fast_profile(sim_cycles=SIM_CYCLES).with_(
            num_cores=1
        )
        mix = _mix("MMLL", config)
        low_intensity_trace = mix.traces[-1]  # an L workload
        results = {}
        for engine in ("cycle", "fast"):
            simulator = Simulator(
                config, [low_intensity_trace],
                SimulationConfig(max_cycles=SIM_CYCLES, engine=engine),
            )
            results[engine] = (simulator.run(), simulator)
        cycle_stats = results["cycle"][0].stats
        fast_stats = results["fast"][0].stats
        assert dataclasses.asdict(cycle_stats) == dataclasses.asdict(fast_stats)
        # The cycle engine ticks every cycle; the fast engine must have
        # jumped over a substantial fraction of them.
        assert results["cycle"][1].ticks_executed == cycle_stats.cycles
        assert results["fast"][1].ticks_executed < 0.8 * cycle_stats.cycles

    def test_smoke_both_engines_end_to_end(self):
        """Tier-1 smoke: one tiny run per engine, statistics identical."""

        config = SystemConfig.fast_profile(
            mitigation="para", nrh=1024, sim_cycles=1_500
        )
        mix = _mix("MMLA", config)
        stats = {}
        for engine in ("cycle", "fast"):
            simulator = Simulator(
                config, mix.traces,
                SimulationConfig(max_cycles=1_500, engine=engine),
            )
            stats[engine] = simulator.run().stats
        assert dataclasses.asdict(stats["cycle"]) == \
            dataclasses.asdict(stats["fast"])
        assert stats["cycle"].cycles == 1_500


def test_unknown_engine_rejected():
    # "batch" names a deleted engine: stale configs must fail loudly.
    for engine in ("warp", "batch"):
        with pytest.raises(ValueError):
            SimulationConfig(engine=engine)


def _mapper(**knobs) -> AddressMapper:
    return AddressMapper(DeviceConfig.tiny(), **knobs)


def _scenario(**knobs) -> Scenario:
    return Scenario(seed=0, mix="M", mechanism="none", nrh=64,
                    breakhammer=False, sim_cycles=800, **knobs)


@pytest.mark.parametrize("build, keyword, value", [
    pytest.param(build, keyword, value, id=f"{owner}.{keyword}")
    for owner, build, keyword, value in [
        ("SimulationConfig", SimulationConfig, "warmup_cycles", 100),
        ("SimulationConfig", SimulationConfig, "instruction_limit", 500),
        ("SimulationConfig", SimulationConfig, "stop_when_benign_done",
         False),
        ("SystemConfig", SystemConfig, "scheduler", "fcfs"),
        ("SystemConfig", SystemConfig, "scheduler_cap", 4),
        ("AddressMapper", _mapper, "mop_lines", 4),
        ("Scenario", _scenario, "warmup_cycles", 100),
        ("Scenario", _scenario, "instruction_limit", 500),
        ("Scenario", _scenario, "scheduler", "fcfs"),
    ]
])
def test_removed_run_knobs_are_rejected(build, keyword, value):
    """Every run spends its full budget under FR-FCFS+Cap: the warmup,
    stop, scheduler and MOP-block knobs fail loudly, never ignored."""

    with pytest.raises(TypeError, match=keyword):
        build(**{keyword: value})
