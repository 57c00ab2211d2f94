"""A finished run frees itself, and completions keep their place in a tick.

The simulated machine is an acyclic object graph: a core is handed the
system's send function on every tick instead of storing it, the
controller hands completed reads to the response function of its tick
instead of a callback stored on each request, and a core reads its
trace's columns instead of entry objects.  Dropping a run's result
therefore frees the whole machine by reference counting alone, and a
process that runs many simulations holds one run's live set at a time.

The response still runs where the stored callback did: inside the
controller's tick, before the write-drain update and the command issue,
so a dirty victim's writeback is visible to that tick's scheduling.  No
fast-profile run evicts a dirty line, so the runs here shrink the LLC to
16 KB and pin their outputs to values recorded from the per-cycle
reference engine (the idiom of ``tests/test_blockhammer_veto.py``).
"""

from __future__ import annotations

import gc
import hashlib

import pytest

from repro.cpu.cache import CacheConfig
from repro.cpu.trace import Trace, TraceEntry
from repro.mitigations.registry import available_mechanisms
from repro.sim.config import SIMULATION_ENGINES, SimulationConfig, SystemConfig
from repro.sim.simulator import Simulator
from repro.workloads.mixes import make_mix

from test_blockhammer_veto import canonical


def build_traces(name: str, config: SystemConfig, entries: int,
                 attacker_entries: int):
    return make_mix(name, device=config.device, entries_per_core=entries,
                    attacker_entries=attacker_entries).traces


def test_a_dropped_result_leaves_no_cyclic_garbage():
    """Every mechanism, with and without BreakHammer, under both engines."""

    cycles = 1_000
    base = SystemConfig.fast_profile(nrh=64, sim_cycles=cycles)
    traces = build_traces("HHMA", base, 600, 800)
    leftovers = {}
    gc.collect()
    gc.disable()
    try:
        for mechanism in available_mechanisms():
            for breakhammer in (False, True):
                config = base.with_(mitigation=mechanism,
                                    breakhammer_enabled=breakhammer)
                for engine in SIMULATION_ENGINES:
                    Simulator(config, traces, SimulationConfig(
                        max_cycles=cycles, engine=engine)).run()
                    found = gc.collect()
                    if found:
                        leftovers[mechanism, breakhammer, engine] = found
    finally:
        gc.enable()
    assert leftovers == {}


def test_a_run_builds_no_trace_entry(monkeypatch):
    built = []
    check = TraceEntry.__post_init__

    def counted(entry):
        built.append(entry)
        check(entry)

    monkeypatch.setattr(TraceEntry, "__post_init__", counted)
    Trace.from_columns([0], [64], [0])[0]
    assert len(built) == 1  # the probe sees an entry built on demand
    built.clear()
    # Reads, writes and cache-bypassing accesses (the D stream and the
    # attacker), under both engines.
    config = SystemConfig.fast_profile(mitigation="para", nrh=64,
                                       breakhammer_enabled=True,
                                       sim_cycles=1_000).with_(num_cores=3)
    traces = build_traces("HDA", config, 600, 800)
    for engine in SIMULATION_ENGINES:
        stats = Simulator(config, traces, SimulationConfig(
            max_cycles=1_000, engine=engine)).run().stats
        assert sum(stats.memory_accesses_by_thread.values()) > 0
    assert built == []


SIM_CYCLES = 6_000

#: (mix, mechanism, nrh, breakhammer) -> (LLC writebacks, sha256 of the
#: canonical RunStatistics), recorded under the cycle engine.
EXPECTED = {
    ("HHMA", "para", 64, True): (
        83,
        "da2464be9cd29342543f1c7f50b4fb85d20e620e36e092f8cb0765184f462ba8"),
    ("MMLL", "none", 64, False): (
        140,
        "9c4fe4f1d953f9c9400cc58dc231bfe7b8c7caaf26154333c4af72a18e61d8dc"),
    ("HHMA", "blockhammer", 64, False): (
        16,
        "f3c571c08aa2a2b8ff88bd94c79334a9d6753f7ab373e8888280c18f6bdf9659"),
}


def case_id(case) -> str:
    mix, mechanism, nrh, breakhammer = case
    return f"{mix}-{mechanism}-nrh{nrh}{'-bh' if breakhammer else ''}"


@pytest.mark.parametrize("engine", SIMULATION_ENGINES)
@pytest.mark.parametrize("case", list(EXPECTED),
                         ids=[case_id(case) for case in EXPECTED])
def test_writebacks_match_recorded_outputs(case, engine):
    mix, mechanism, nrh, breakhammer = case
    config = SystemConfig.fast_profile(
        mitigation=mechanism, nrh=nrh, breakhammer_enabled=breakhammer,
        sim_cycles=SIM_CYCLES,
    ).with_(llc=CacheConfig(size_bytes=16 * 1024, associativity=8),
            num_cores=len(mix))
    result = Simulator(
        config, build_traces(mix, config, 2_000, 3_000),
        SimulationConfig(max_cycles=SIM_CYCLES, engine=engine),
    ).run()
    observed = (result.system.llc.stats.writebacks,
                hashlib.sha256(canonical(result.stats).encode()).hexdigest())
    assert observed == EXPECTED[case]
