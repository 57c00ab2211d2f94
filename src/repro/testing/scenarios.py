"""Scenario space of the differential fuzzer.

A :class:`Scenario` is one fully specified simulation setup: workload mix
(benign intensities, attacker, DMA stream), mitigation mechanism with its
threshold *and its internals* (``mitigation_kwargs``: PRAC back-off
servicing, Graphene/Hydra table sizes), BreakHammer, device geometry (rank
count, timing compression) and the cycle budget, which every run spends in
full.  The sampler draws scenarios from that space deterministically from
a seed, so any scenario — and any whole campaign — can be replayed
exactly.

Mechanism coverage is guaranteed, not hoped for: scenario ``i`` of a batch
uses mechanism ``FUZZ_MECHANISMS[i % len]``, so any batch of at least ten
scenarios exercises every registered mitigation (the paper's eight paired
mechanisms plus ``none`` and BlockHammer); the remaining dimensions are
sampled randomly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.cpu.trace import Trace
from repro.dram.address import AddressMapper
from repro.dram.config import DeviceConfig
from repro.mitigations.registry import PAIRED_MECHANISMS
from repro.sim.config import SimulationConfig, SystemConfig
from repro.workloads.attacker import AttackerConfig
from repro.workloads.mixes import ATTACKER_LETTERS, WorkloadMix, make_mix

#: Every mechanism the fuzzer rotates through (registry order: the paper's
#: eight BreakHammer-paired mechanisms, the no-mitigation baseline, and
#: BlockHammer).
FUZZ_MECHANISMS: Tuple[str, ...] = (*PAIRED_MECHANISMS, "none", "blockhammer")

#: Attacker letters the sampler rotates through by scenario index (like
#: mechanisms — never an RNG draw, so adding geometries cannot perturb
#: how other dimensions sample): ``A`` is the paper's double-sided
#: attacker, ``S`` many-sided, ``X`` half-double.
ATTACK_LETTER_ROTATION: Tuple[str, ...] = tuple(ATTACKER_LETTERS)

#: Seed of the fixed pytest corpora (``-m fuzz_smoke``); never change it
#: without re-validating the corpus, it defines which scenarios CI pins.
CORPUS_SEED = 2024


@dataclass(frozen=True)
class Scenario:
    """One point of the differential-fuzzing space (picklable, replayable)."""

    seed: int
    mix: str
    mechanism: str
    nrh: int
    breakhammer: bool
    sim_cycles: int
    entries_per_core: int = 1_200
    attacker_entries: int = 1_600
    ranks: int = 2
    time_compression: float = 4.0
    #: Per-mechanism constructor overrides (PRAC back-off servicing,
    #: Graphene/Hydra table sizes, …) as sorted (name, value) pairs so the
    #: scenario stays hashable, picklable, and replayable from its repr.
    mitigation_kwargs: Tuple[Tuple[str, object], ...] = ()
    #: Additional trace seeds beyond ``seed``: a non-empty tuple turns the
    #: executor differential into a multi-seed sweep (the grid point is
    #: replayed once per seed of :attr:`seeds`), pinning the statistical
    #: seed axis through the process pool.
    extra_seeds: Tuple[int, ...] = ()
    #: Hand-written traces, one per core of :attr:`mix`, in the text format
    #: of :meth:`repro.cpu.trace.Trace.parse` (``<bubble> <address>
    #: [R|W|R!|W!]`` lines).  The mix letters then only mark attacker cores.
    #: They reach cases the generated mixes never do, such as two cores
    #: missing on one cache line.
    traces: Tuple[str, ...] = ()
    #: Read-queue capacity (``None``: the profile's, which equals the MSHR
    #: count, so the MSHR file refuses a load before the full queue can).
    read_queue_size: Optional[int] = None

    @property
    def seeds(self) -> Tuple[int, ...]:
        """The full seed axis of this scenario (primary seed first)."""

        return (self.seed, *self.extra_seeds)

    @property
    def label(self) -> str:
        """Compact id used by pytest parametrisation and CLI progress."""

        extras = []
        if self.breakhammer:
            extras.append("bh")
        if self.ranks != 2:
            extras.append(f"r{self.ranks}")
        extras.extend(
            f"{name.replace('_', '')}{value}"
            for name, value in self.mitigation_kwargs
        )
        if self.extra_seeds:
            extras.append("ms" + "".join(str(s) for s in self.extra_seeds))
        if self.traces:
            extras.append("hand")
        if self.read_queue_size is not None:
            extras.append(f"rq{self.read_queue_size}")
        suffix = ("-" + "-".join(extras)) if extras else ""
        return (f"s{self.seed}-{self.mix}-{self.mechanism}"
                f"-nrh{self.nrh}{suffix}")

    def harness_shaped(self) -> bool:
        """Whether the experiment harness can express this scenario.

        The serial-vs-parallel executor differential runs scenarios through
        :class:`repro.analysis.experiments.ExperimentRunner`, whose grid
        only varies (mix, mechanism, nrh, breakhammer, seed) on top of the
        default fast-profile machine.
        """

        return (
            self.ranks == 2
            and self.time_compression == 4.0
            and not self.mitigation_kwargs  # grid points use registry defaults
            and "D" not in self.mix
            and len(self.mix) == 4  # the harness machine has four cores
            and not self.traces
            and self.read_queue_size is None
        )


@dataclass(frozen=True)
class FuzzProfile:
    """Sampling ranges of one fuzzing campaign."""

    sim_cycles_choices: Tuple[int, ...] = (800, 1_200, 1_600, 2_000)
    entries_choices: Tuple[int, ...] = (600, 1_200)
    attacker_entries_choices: Tuple[int, ...] = (800, 1_600)
    nrh_choices: Tuple[int, ...] = (16, 64, 256, 1_024)
    max_cores: int = 4
    trace_seeds: int = 4

    @classmethod
    def smoke(cls) -> "FuzzProfile":
        """Small enough for the tier-1 ``fuzz_smoke`` corpus."""

        return cls()

    @classmethod
    def campaign(cls) -> "FuzzProfile":
        """Longer runs for offline campaigns (more cycles per scenario)."""

        return cls(
            sim_cycles_choices=(2_000, 4_000, 6_000, 8_000),
            entries_choices=(1_200, 2_400),
            attacker_entries_choices=(1_600, 3_200),
        )


#: Per-mechanism `mitigation_kwargs` pools the fuzzer samples from, so the
#: differential contract covers mechanism *internals*, not just thresholds:
#: PRAC's back-off servicing knobs and the Graphene/Hydra table sizes
#: (smaller tables force spillover / RCC-miss paths that the defaults
#: rarely exercise at fuzzing scale).
MITIGATION_KWARG_POOLS: dict = {
    "prac": (
        ("rfm_per_backoff", (1, 2, 3, 4)),
        ("blast_radius", (1, 2)),
    ),
    "graphene": (
        ("table_entries", (4, 16, 64)),
    ),
    "hydra": (
        ("rcc_entries_per_bank", (4, 16, 64)),
        ("group_size", (32, 64, 128)),
    ),
}


def _sample_mitigation_kwargs(rng: random.Random, mechanism: str
                              ) -> Tuple[Tuple[str, object], ...]:
    """Sorted (name, value) overrides for ``mechanism`` (often empty).

    Always consumes the same number of RNG draws for a given mechanism, so
    adding pools never perturbs the sampling of later dimensions within a
    scenario.
    """

    pools = MITIGATION_KWARG_POOLS.get(mechanism)
    if pools is None:
        return ()
    chosen = []
    sample_any = rng.random() < 0.55
    for name, values in pools:
        pick = rng.random() < 0.7
        value = rng.choice(values)
        if sample_any and pick:
            chosen.append((name, value))
    return tuple(sorted(chosen))


def _sample_mix(rng: random.Random, max_cores: int,
                attack_letter: str = "A") -> str:
    """A mix string over the workload alphabet with 1..max_cores cores.

    ``attack_letter`` selects which hammering geometry an attacker core
    (if placed) uses; the caller rotates it by scenario index so the RNG
    stream is identical whichever letter lands.
    """

    length = rng.randint(1, max_cores)
    letters = [rng.choice("HML") for _ in range(length)]
    if rng.random() < 0.55:
        letters[rng.randrange(length)] = attack_letter
        # Occasionally saturate with a second attacker (back-off storms).
        if length > 1 and rng.random() < 0.2:
            letters[rng.randrange(length)] = attack_letter
    if rng.random() < 0.3:
        slots = [i for i, letter in enumerate(letters)
                 if letter not in ATTACKER_LETTERS]
        if slots:
            letters[rng.choice(slots)] = "D"
    return "".join(letters)


def _sample_extra_seeds(index: int, base_seed: int,
                        sim_cycles: int) -> Tuple[int, ...]:
    """Extra seeds (length 0–2, i.e. seed tuples of length 1–3).

    Drawn from a scenario-local RNG keyed on already-sampled fields, not
    from the campaign stream: extending the seed axis must never perturb
    how the *other* dimensions of this or any later scenario sample.
    """

    local = random.Random(index * 7919 + base_seed * 131 + sim_cycles)
    length = local.choice((0, 0, 0, 1, 2))
    return tuple(base_seed + 1 + i for i in range(length))


def _sample_scenario(rng: random.Random, index: int,
                     profile: FuzzProfile) -> Scenario:
    sim_cycles = rng.choice(profile.sim_cycles_choices)
    mechanism = FUZZ_MECHANISMS[index % len(FUZZ_MECHANISMS)]
    seed = rng.randrange(profile.trace_seeds)
    return Scenario(
        seed=seed,
        # Attack-pattern rotation by index (like mechanisms): scenario i
        # places the double-sided / many-sided / half-double attacker.
        mix=_sample_mix(rng, profile.max_cores,
                        ATTACK_LETTER_ROTATION[
                            index % len(ATTACK_LETTER_ROTATION)]),
        mechanism=mechanism,
        nrh=rng.choice(profile.nrh_choices),
        breakhammer=rng.random() < 0.5,
        sim_cycles=sim_cycles,
        entries_per_core=rng.choice(profile.entries_choices),
        attacker_entries=rng.choice(profile.attacker_entries_choices),
        ranks=rng.choice((1, 2, 2)),
        time_compression=rng.choice((4.0, 4.0, 2.0)),
        mitigation_kwargs=_sample_mitigation_kwargs(rng, mechanism),
        extra_seeds=_sample_extra_seeds(index, seed, sim_cycles),
    )


def generate_scenarios(seed: int, count: int,
                       profile: Optional[FuzzProfile] = None
                       ) -> List[Scenario]:
    """``count`` scenarios drawn deterministically from ``seed``."""

    profile = profile or FuzzProfile.smoke()
    rng = random.Random(seed)
    return [_sample_scenario(rng, index, profile) for index in range(count)]


def fuzz_corpus(count: int = 44) -> List[Scenario]:
    """The fixed-seed corpus the ``fuzz_smoke`` pytest tier replays.

    Spans every registered mechanism (``count >= len(FUZZ_MECHANISMS)``),
    single- to four-core mixes with attackers and DMA streams, both rank
    geometries, and ``mitigation_kwargs`` overrides for every mechanism
    that samples them (PRAC back-off servicing, Graphene and Hydra table
    sizes).  The fixed seed reaches all three pools from 22 scenarios on;
    the corpus keeps 44, so that the engine differential replays as many
    random scenarios, over as many mixes, geometries and seeds, as it did
    when each scenario also drew a warmup, an instruction limit and a
    scheduler.  Seven fixed harness-shaped scenarios at N_RH 128 ride
    along, two of them multi-seed, and :func:`boundary_corpus` pins fixed
    cases where the engines' jumps end.
    """

    return (generate_scenarios(CORPUS_SEED, count, FuzzProfile.smoke())
            + _nrh128_corpus() + boundary_corpus())


def _hand_trace(accesses: List[Tuple[int, int, str]]) -> str:
    """``(bubble, address, kind)`` rows in the text trace format."""

    return "".join(f"{bubble} {address:#x} {kind}\n"
                   for bubble, address, kind in accesses)


def boundary_corpus() -> List[Scenario]:
    """Fixed scenarios pinning ``cycle ≡ fast`` where the engines' jumps end.

    They cover BreakHammer, mechanism internals, single-rank BlockHammer,
    multi-seed runs, and two BlockHammer runs whose vetoed cycles are
    skipped right up to the final tick (the vetoes the skipped cycles owe
    must be credited on that very tick).  In the second, BreakHammer is
    off, so only the fast engine's clamp of its jump to the budget makes
    that final tick happen.

    The last four pin each event that wakes a core the fast engine put to
    sleep after a refused access (``System.tick``); each diverges when its
    source is dropped from the wake key: a quota BreakHammer raises again,
    another core allocating the line a throttled core waits for (a merge),
    a store refused by a full write queue while the MSHR file stays
    still, and a load refused by a read queue smaller than the MSHR file.
    """

    config = SystemConfig.fast_profile()
    mapper = AddressMapper(config.device, config.mapping)

    def line(row: int, column: int = 0, bank: int = 0) -> int:
        """A line of rank 0, bank group 0 on the fast-profile device."""

        return mapper.address_for_row(0, 0, 0, bank, row, column=column)

    aggressors = [line(row, column) for column in range(4) for row in (10, 12)]

    return [
        Scenario(seed=0, mix="MMLA", mechanism="graphene", nrh=64,
                 breakhammer=True, sim_cycles=1_200, entries_per_core=600,
                 attacker_entries=800),
        Scenario(seed=1, mix="HHMA", mechanism="para", nrh=256,
                 breakhammer=False, sim_cycles=1_200,
                 entries_per_core=600, attacker_entries=800),
        Scenario(seed=2, mix="HMLA", mechanism="prac", nrh=16,
                 breakhammer=True, sim_cycles=1_600,
                 entries_per_core=600, attacker_entries=800,
                 mitigation_kwargs=(("rfm_per_backoff", 2),)),
        Scenario(seed=0, mix="MMDA", mechanism="hydra", nrh=64,
                 breakhammer=False, sim_cycles=1_200,
                 entries_per_core=600, attacker_entries=800),
        Scenario(seed=3, mix="HLA", mechanism="blockhammer", nrh=64,
                 breakhammer=False, sim_cycles=1_200, ranks=1,
                 entries_per_core=600, attacker_entries=800),
        # The fast engine jumps from tick 900 to the final tick (1,200)
        # with eight vetoes pending; the 2,392 they owe land on that tick.
        # 1,200 is also BreakHammer's fourth window boundary.
        Scenario(seed=0, mix="MMLA", mechanism="blockhammer", nrh=16,
                 breakhammer=True, sim_cycles=1_200, entries_per_core=600,
                 attacker_entries=800),
        # After tick 461 the next event lies past the budget, so the clamp
        # alone makes 1,000 the final tick; the 4,304 vetoes that eight
        # pending attempts owe land on it.
        Scenario(seed=0, mix="MA", mechanism="blockhammer", nrh=16,
                 breakhammer=False, sim_cycles=1_000, entries_per_core=600,
                 attacker_entries=800),
        Scenario(seed=0, mix="MMLA", mechanism="rfm", nrh=128,
                 breakhammer=True, sim_cycles=1_200, entries_per_core=600,
                 attacker_entries=800, extra_seeds=(1, 2)),
        Scenario(seed=0, mix="HHMA", mechanism="graphene", nrh=128,
                 breakhammer=False, sim_cycles=1_200, entries_per_core=600,
                 attacker_entries=800, extra_seeds=(1,)),
        # The attacker is throttled in one window and restored at the next
        # window's end, while it sleeps on its quota.
        Scenario(seed=0, mix="MA", mechanism="rfm", nrh=64,
                 breakhammer=True, sim_cycles=2_000, entries_per_core=600,
                 attacker_entries=800),
        # The throttled attacker (core 1) waits for an aggressor line that
        # core 0 also loads uncached: core 0's allocation turns the
        # attacker's refused miss into a merge.
        Scenario(seed=0, mix="MA", mechanism="para", nrh=16,
                 breakhammer=True, sim_cycles=1_200,
                 traces=(_hand_trace([(10, line, "R!")
                                      for line in aggressors]),
                         _hand_trace([(0, line, "R!")
                                      for line in aggressors]))),
        # A stream of store misses: no MSHR is ever allocated.
        Scenario(seed=0, mix="M", mechanism="none", nrh=64,
                 breakhammer=False, sim_cycles=800,
                 traces=(_hand_trace([
                     (0, line(20 + i % 40, i // 40, i % 4), "W")
                     for i in range(64)
                 ]),)),
        Scenario(seed=0, mix="HH", mechanism="para", nrh=64,
                 breakhammer=False, sim_cycles=1_200, entries_per_core=600,
                 attacker_entries=800, read_queue_size=8),
    ]


def executor_corpus() -> List[Scenario]:
    """Harness-shaped scenarios for the serial-vs-parallel differential.

    All share one harness shape (cycle budget, trace sizes, seed) so a
    single worker pool serves the whole batch; they vary the grid
    coordinates the sweep executor actually shards.
    """

    shape = dict(sim_cycles=1_200, entries_per_core=600,
                 attacker_entries=800, seed=0)
    grid = [
        ("MMLA", "para", 64, True, ()),
        ("HHMA", "graphene", 64, False, ()),
        ("HMLA", "prac", 16, True, ()),
        ("HHAA", "rfm", 64, False, ()),
        ("MMLL", "hydra", 256, True, ()),
        ("HMML", "none", 1_024, False, ()),
        # Multi-seed grid points: the differential replays these once per
        # seed, asserting serial and sharded sweeps agree on the seed axis.
        ("HHMA", "graphene", 256, False, (1,)),
        ("MMLA", "rfm", 256, True, (1, 2)),
    ]
    return [
        Scenario(mix=mix, mechanism=mechanism, nrh=nrh, breakhammer=bh,
                 extra_seeds=extra, **shape)
        for mix, mechanism, nrh, bh, extra in grid
    ]


def _nrh128_corpus() -> List[Scenario]:
    """Harness-shaped scenarios of :func:`fuzz_corpus`, all at N_RH 128.

    Like :func:`executor_corpus` they share one harness shape;
    ``nrh=128`` (outside the random sampler's choice set) keeps their
    labels distinct from every sampled scenario.
    """

    shape = dict(sim_cycles=1_200, entries_per_core=600,
                 attacker_entries=800, seed=0)
    grid = [
        ("MMLA", "para", 128, True, ()),
        ("HHMA", "graphene", 128, False, ()),
        ("MLLA", "prac", 128, True, ()),
        ("MMLL", "hydra", 128, False, ()),
        ("HMLA", "rfm", 128, True, ()),
        # Multi-seed grid points.
        ("MMLA", "graphene", 128, True, (1,)),
        ("HHMA", "rfm", 128, False, (1, 2)),
    ]
    return [
        Scenario(mix=mix, mechanism=mechanism, nrh=nrh, breakhammer=bh,
                 extra_seeds=extra, **shape)
        for mix, mechanism, nrh, bh, extra in grid
    ]


# ---------------------------------------------------------------------- #
# Scenario -> simulation inputs
# ---------------------------------------------------------------------- #
def build_system_config(scenario: Scenario) -> SystemConfig:
    """The :class:`SystemConfig` a scenario describes.

    Starts from the scaled fast profile (so BreakHammer's window scaling
    matches the harness) and applies the scenario's machine knobs.
    """

    config = SystemConfig.fast_profile(
        mitigation=scenario.mechanism,
        nrh=scenario.nrh,
        breakhammer_enabled=scenario.breakhammer,
        sim_cycles=scenario.sim_cycles,
        time_compression=scenario.time_compression,
    )
    changes = {"num_cores": len(scenario.mix)}
    if scenario.mitigation_kwargs:
        changes["mitigation_kwargs"] = dict(scenario.mitigation_kwargs)
    if scenario.read_queue_size is not None:
        changes["read_queue_size"] = scenario.read_queue_size
    if scenario.ranks != config.device.ranks:
        device = DeviceConfig.ddr5_4800(rows_per_bank=4096,
                                        ranks=scenario.ranks)
        if scenario.time_compression != 1.0:
            device = device.time_compressed(scenario.time_compression)
        changes["device"] = device
    return config.with_(**changes)


def build_workload(scenario: Scenario,
                   config: Optional[SystemConfig] = None) -> WorkloadMix:
    """The workload mix a scenario describes (deterministic from the seed)."""

    if scenario.traces:
        return WorkloadMix(
            name=scenario.mix,
            traces=[Trace.parse(text.splitlines(), name=f"hand{core}")
                    for core, text in enumerate(scenario.traces)],
            attacker_threads=[core for core, letter in enumerate(scenario.mix)
                              if letter in ATTACKER_LETTERS],
        )
    config = config or build_system_config(scenario)
    return make_mix(
        scenario.mix,
        device=config.device,
        mapping=config.mapping,
        entries_per_core=scenario.entries_per_core,
        attacker_entries=scenario.attacker_entries,
        seed=scenario.seed,
        attacker_config=AttackerConfig(entries=scenario.attacker_entries,
                                       seed=scenario.seed),
    )


def build_simulation_config(scenario: Scenario,
                            engine: str) -> SimulationConfig:
    """The run bounds a scenario describes, for ``engine``."""

    return SimulationConfig(max_cycles=scenario.sim_cycles, engine=engine)


def simplifications(scenario: Scenario) -> List[Scenario]:
    """Strictly simpler variants of ``scenario``, for the shrinker.

    Ordered most-aggressive first: dropping a core removes an entire trace,
    halving the budget halves the run, and clearing BreakHammer removes a
    whole contract dimension.  Machine-shape knobs (ranks, compression) are
    left alone — changing them would change *which* bug is being
    reproduced.
    """

    candidates: List[Scenario] = []
    if len(scenario.mix) > 1:
        candidates.extend(
            replace(scenario, mix=scenario.mix[:i] + scenario.mix[i + 1:],
                    traces=scenario.traces[:i] + scenario.traces[i + 1:])
            for i in range(len(scenario.mix))
        )
    if scenario.sim_cycles > 400:
        candidates.append(replace(scenario,
                                  sim_cycles=scenario.sim_cycles // 2))
    if scenario.breakhammer:
        candidates.append(replace(scenario, breakhammer=False))
    if scenario.mitigation_kwargs:
        # Drop all overrides first, then one at a time.
        candidates.append(replace(scenario, mitigation_kwargs=()))
        if len(scenario.mitigation_kwargs) > 1:
            candidates.extend(
                replace(scenario, mitigation_kwargs=tuple(
                    kv for j, kv in enumerate(scenario.mitigation_kwargs)
                    if j != i
                ))
                for i in range(len(scenario.mitigation_kwargs))
            )
    if scenario.entries_per_core > 300:
        candidates.append(replace(
            scenario, entries_per_core=scenario.entries_per_core // 2))
    if scenario.attacker_entries > 400:
        candidates.append(replace(
            scenario, attacker_entries=scenario.attacker_entries // 2))
    return candidates
