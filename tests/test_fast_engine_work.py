"""Work-count tripwire for the fast engine's per-cycle savings.

Outputs cannot show a change that quietly brings back per-cycle ticks of
refused cores or full rebuilds of the scheduler's per-bank offers: both
engines give the same results either way, only slower.  This test counts
that work on one small attacked point (smoke-profile MMLA, PARA and
BreakHammer, N_RH 64, seed 0), wrapping the entry points as
``perfbench`` does, and bounds it by the counts the current code performs
(18,742 core ticks and 3,827 offer rebuilds in 4,723 scans of 5,792
ticks) plus a margin.
"""

from __future__ import annotations

from repro.api import ExperimentSpec
from repro.controller.scheduler import BaseScheduler, FrFcfsCapScheduler
from repro.cpu.core_model import Core
from repro.sim.simulator import Simulator
from repro.workloads.attacker import AttackerConfig
from repro.workloads.mixes import make_mix

MAX_CORE_TICKS = 19_700
MAX_OFFER_REBUILDS = 4_000


def _counting(counts, name, fn, weigh=lambda result: 1):
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        counts[name] += weigh(result)
        return result

    return counted


def test_attacked_point_skips_refused_cores_and_reuses_offers(monkeypatch):
    counts = dict.fromkeys(("core_ticks", "offers", "scans"), 0)
    monkeypatch.setattr(Core, "tick",
                        _counting(counts, "core_ticks", Core.tick))
    monkeypatch.setattr(FrFcfsCapScheduler, "bank_offers",
                        _counting(counts, "offers",
                                  FrFcfsCapScheduler.bank_offers, len))
    monkeypatch.setattr(BaseScheduler, "iter_prioritized",
                        _counting(counts, "scans",
                                  BaseScheduler.iter_prioritized))
    spec = ExperimentSpec.smoke(engine="fast")
    config = spec.base_system().with_(mitigation="para", nrh=64,
                                      breakhammer_enabled=True)
    mix = make_mix("MMLA", device=config.device, mapping=config.mapping,
                   entries_per_core=spec.entries_per_core,
                   attacker_entries=spec.attacker_entries, seed=0,
                   attacker_config=AttackerConfig(
                       entries=spec.attacker_entries, seed=0))
    simulator = Simulator(config, mix.traces, spec.simulation_config())
    simulator.run()

    ticks = simulator.ticks_executed
    banks = config.device.ranks * config.device.banks_per_rank
    assert counts["scans"] > 0
    # Ticking every core in every simulated cycle would cost
    # num_cores x ticks (23,168 here).
    assert counts["core_ticks"] <= MAX_CORE_TICKS
    assert counts["core_ticks"] < 0.9 * config.num_cores * ticks
    # Rebuilding every bank's offer in every scan would cost about
    # 8 x scans here (38,844), and up to banks x scans.
    assert counts["offers"] <= MAX_OFFER_REBUILDS
    assert counts["offers"] < banks * counts["scans"] / 16
