"""BlockHammer runs whose activation vetoes end inside the run.

The fast-profile runs the other tests use are shorter than BlockHammer's
``min_activation_interval`` and than its counter window, so no veto they
see ever ends.  Here the device's refresh window is shrunk to 0.002 ms:
tREFW is 4,808 cycles, the counter window switches every 2,404 cycles and
``min_activation_interval`` is 300 cycles at N_RH=16 (75 at N_RH=64), so
within 6,000 cycles vetoes end by timeout, at window switches and at
refresh-window clears.

The expected values are recorded outputs of the per-cycle reference
engine, not a comparison between engines, so a bug that the fast and
the cycle engine share fails here too.  A failure prints the blocked and
delayed activation counts before the digest of the whole
:class:`RunStatistics`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.mitigations.blockhammer import BlockHammer
from repro.sim.config import SimulationConfig, SystemConfig
from repro.sim.simulator import Simulator
from repro.workloads.attacker import AttackerConfig
from repro.workloads.mixes import make_mix

SIM_CYCLES = 6_000
REFRESH_WINDOW_MS = 0.002

#: (mix, nrh, seed, breakhammer) -> (blocked_activations,
#: delayed_activations, sha256 of the canonical RunStatistics).
EXPECTED = {
    ("A", 16, 0, False): (
        35800, 35800,
        "036e24cf801830c47cdccf7574cd3b67843c0831c45b27852188e51456dcdec8"),
    ("A", 64, 0, False): (
        9935, 9935,
        "ca015f5e335e9c4b2ad07c12041ea69ad5391d24e5b7d2b4440620ebe0059372"),
    ("HLA", 16, 0, False): (
        30461, 30461,
        "20f68c0eca66eeb65615c6a5d7b7c3e8bee0b4c2d693136b06dad0e51fc877a5"),
    ("HLA", 64, 0, False): (
        4875, 4875,
        "b406a7628b94be58a6e21b964605abdf7077e9e89ca2baffb34caa424c1435a7"),
    ("MMLA", 16, 0, False): (
        29124, 29124,
        "04d6812da2c52e1b17e36b30d1df7a17d178e58de03baaf52bd51e31b783965d"),
    ("MMLA", 64, 0, False): (
        5119, 5119,
        "9f7bd8176daadb04dbe74886e308ac97659fd6ffee3a85570d291d19a57ef74c"),
    ("MMLA", 16, 2, True): (
        29252, 29252,
        "f81791ea2149cb398d5d8ca632c47d2af37272a07335b312dcc6d2e6711cc5ed"),
}


def canonical(value) -> str:
    """An order-independent, type-preserving text encoding of ``value``.

    Defined here rather than imported from the benchmark, so the recorded
    digests cannot move with a change to the benchmark's encoding.
    """

    if value is None:
        return "n"
    if isinstance(value, bool):
        return "T" if value else "F"
    if isinstance(value, int):
        return f"i{value}"
    if isinstance(value, float):
        return f"f{value!r}"
    if isinstance(value, str):
        return "s" + json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical(item) for item in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(sorted(
            f"{canonical(key)}:{canonical(item)}"
            for key, item in value.items()
        )) + "}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return canonical(dataclasses.asdict(value))
    raise TypeError(f"no canonical encoding for {type(value).__name__}")


def short_window_config(nrh: int, breakhammer: bool,
                        cores: int) -> SystemConfig:
    config = SystemConfig.fast_profile(mitigation="blockhammer", nrh=nrh,
                                       breakhammer_enabled=breakhammer,
                                       sim_cycles=SIM_CYCLES)
    device = config.device
    device = dataclasses.replace(device, timings=dataclasses.replace(
        device.timings, refresh_window_ms=REFRESH_WINDOW_MS))
    return config.with_(device=device, num_cores=cores)


def run_case(case, engine: str):
    mix_name, nrh, seed, breakhammer = case
    config = short_window_config(nrh, breakhammer, len(mix_name))
    mix = make_mix(mix_name, device=config.device, mapping=config.mapping,
                   entries_per_core=1_200, attacker_entries=1_600,
                   seed=seed,
                   attacker_config=AttackerConfig(entries=1_600, seed=seed))
    simulator = Simulator(
        config, mix.traces,
        SimulationConfig(max_cycles=SIM_CYCLES, engine=engine),
    )
    return simulator.run().stats


def case_id(case) -> str:
    mix_name, nrh, seed, breakhammer = case
    return f"{mix_name}-nrh{nrh}-s{seed}{'-bh' if breakhammer else ''}"


def test_vetoes_end_inside_the_run():
    """The configuration really reaches the three ways a veto ends."""

    for nrh in (16, 64):
        config = short_window_config(nrh, breakhammer=False, cores=1)
        mechanism = BlockHammer(config.device, nrh)
        assert mechanism.min_activation_interval < SIM_CYCLES // 10
        assert mechanism.window_cycles < SIM_CYCLES


@pytest.mark.parametrize("engine", ["fast", "cycle"])
@pytest.mark.parametrize("case", list(EXPECTED),
                         ids=[case_id(case) for case in EXPECTED])
def test_matches_recorded_outputs(case, engine):
    stats = run_case(case, engine)
    observed = (stats.blocked_activations,
                stats.mitigation_stats["delayed_activations"],
                hashlib.sha256(canonical(stats).encode()).hexdigest())
    assert observed == EXPECTED[case]
