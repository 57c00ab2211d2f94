"""Ablation — Expression 1 quota policy vs gentler throttling.

Compares the paper's quota policy (divide by P_newsuspect = 10 on first
detection, subtract P_oldsuspect = 1 afterwards) against a gentler
halving-only policy (P_newsuspect = 2) in a full attack simulation, checking
that the aggressive first-step reduction is what recovers benign throughput.
"""

from conftest import run_once

from repro.core.breakhammer import BreakHammerConfig
from repro.sim.config import SimulationConfig, SystemConfig
from repro.sim.simulator import Simulator
from repro.workloads.attacker import AttackerConfig
from repro.workloads.mixes import make_mix

CYCLES = 12_000


def _benign_ipc(p_newsuspect: int) -> float:
    config = SystemConfig.fast_profile(
        mitigation="rfm", nrh=256, breakhammer_enabled=True,
        sim_cycles=CYCLES,
    )
    config = config.with_(breakhammer=BreakHammerConfig(
        window_ms=config.breakhammer.window_ms,
        threat_threshold=config.breakhammer.threat_threshold,
        outlier_threshold=config.breakhammer.outlier_threshold,
        p_oldsuspect=1,
        p_newsuspect=p_newsuspect,
    ))
    mix = make_mix("HHMA", device=config.device, entries_per_core=3000,
                   attacker_entries=6000,
                   attacker_config=AttackerConfig(entries=6000))
    simulator = Simulator(config, mix.traces,
                          SimulationConfig(max_cycles=CYCLES))
    stats = simulator.run().stats
    return sum(stats.ipc_by_thread[t] for t in mix.benign_threads)


def test_ablation_quota_policy(benchmark, emit):
    def run_both():
        return _benign_ipc(10), _benign_ipc(2)

    paper_policy, gentle_policy = run_once(benchmark, run_both)
    print(f"\nbenign IPC: paper policy (÷10)={paper_policy:.3f}, "
          f"gentle policy (÷2)={gentle_policy:.3f}")
    # The paper's aggressive first reduction must not be worse than the
    # gentle variant (it usually recovers more benign throughput).
    assert paper_policy >= gentle_policy * 0.97
