"""Scenario space of the differential fuzzer.

A :class:`Scenario` is one fully specified simulation setup: workload mix
(benign intensities, attacker, DMA stream), mitigation mechanism with its
threshold *and its internals* (``mitigation_kwargs``: PRAC back-off
servicing, Graphene/Hydra table sizes), BreakHammer, device geometry (rank
count, timing compression), scheduler policy, and every run-bounding knob
the engines must agree on (cycle budget, warmup boundary, instruction
limit).  The sampler draws
scenarios from that space deterministically from a seed, so any scenario —
and any whole campaign — can be replayed exactly.

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
#: mechanisms and ``check_engines`` — never an RNG draw, so adding
#: geometries cannot perturb how other dimensions sample): ``A`` is the
#: paper's double-sided attacker, ``S`` many-sided, ``X`` half-double.
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
    warmup_cycles: int = 0
    instruction_limit: Optional[int] = None
    entries_per_core: int = 1_200
    attacker_entries: int = 1_600
    ranks: int = 2
    scheduler: str = "frfcfs_cap"
    time_compression: float = 4.0
    #: Per-mechanism constructor overrides (PRAC back-off servicing,
    #: Graphene/Hydra table sizes, …) as sorted (name, value) pairs so the
    #: scenario stays hashable, picklable, and replayable from its repr.
    mitigation_kwargs: Tuple[Tuple[str, object], ...] = ()
    #: Additional trace seeds beyond ``seed``: a non-empty tuple turns the
    #: executor/cluster differentials into multi-seed sweeps (the grid
    #: point is replayed once per seed of :attr:`seeds`), pinning the
    #: statistical seed axis through every execution backend.
    extra_seeds: Tuple[int, ...] = ()
    #: Engines diffed against the ``cycle`` reference by
    #: :func:`repro.testing.fuzz.run_differential`.  The sampler rotates
    #: ``("batch",)`` in (like mechanisms: by index, so rotation never
    #: perturbs the other dimensions' draws), keeping the tri-engine
    #: contract generatively enforced at unchanged campaign cost.
    check_engines: Tuple[str, ...] = ("fast",)

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
        if self.warmup_cycles:
            extras.append(f"w{self.warmup_cycles}")
        if self.instruction_limit:
            extras.append(f"il{self.instruction_limit}")
        if self.ranks != 2:
            extras.append(f"r{self.ranks}")
        extras.extend(
            f"{name.replace('_', '')}{value}"
            for name, value in self.mitigation_kwargs
        )
        if self.extra_seeds:
            extras.append("ms" + "".join(str(s) for s in self.extra_seeds))
        if self.check_engines != ("fast",):
            extras.append("e" + "".join(e[0] for e in self.check_engines))
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
            self.warmup_cycles == 0
            and self.instruction_limit is None
            and self.ranks == 2
            and self.scheduler == "frfcfs_cap"
            and self.time_compression == 4.0
            and not self.mitigation_kwargs  # grid points use registry defaults
            and "D" not in self.mix
            and len(self.mix) == 4  # the harness machine has four cores
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
    warmup = rng.choice((0, 0, 0, sim_cycles // 4, sim_cycles // 2))
    limit = rng.choice((None, None, None, 200, 500, 1_500))
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
        warmup_cycles=warmup,
        instruction_limit=limit,
        entries_per_core=rng.choice(profile.entries_choices),
        attacker_entries=rng.choice(profile.attacker_entries_choices),
        ranks=rng.choice((1, 2, 2)),
        scheduler=rng.choice(("frfcfs_cap", "frfcfs_cap", "frfcfs", "fcfs")),
        time_compression=rng.choice((4.0, 4.0, 2.0)),
        mitigation_kwargs=_sample_mitigation_kwargs(rng, mechanism),
        extra_seeds=_sample_extra_seeds(index, seed, sim_cycles),
        # Index rotation (not an RNG draw): every third scenario checks the
        # batch engine against the cycle reference instead of the fast one.
        # cycle ≡ fast stays pinned by the other two thirds, so all three
        # engines are generatively covered at two runs per scenario.
        check_engines=("batch",) if index % 3 == 2 else ("fast",),
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
    geometries, all schedulers, warmup/instruction-limit combinations, and
    ``mitigation_kwargs`` overrides for every mechanism that samples them
    (PRAC back-off servicing, Graphene and Hydra table sizes) — 44 is the
    smallest count at which the fixed seed reaches all three.  The fixed
    :func:`cluster_corpus` scenarios ride along, so the engine contract
    also covers every grid point the cluster-backend differential replays,
    and :func:`batch_corpus` pins the tri-engine contract on fixed
    scenarios (the sampler's index rotation covers it generatively).
    """

    return (generate_scenarios(CORPUS_SEED, count, FuzzProfile.smoke())
            + cluster_corpus() + batch_corpus())


def batch_corpus() -> List[Scenario]:
    """Fixed scenarios pinning ``cycle ≡ fast ≡ batch`` on every lane kind.

    Each checks both non-reference engines against the cycle reference
    (``check_engines=("fast", "batch")``), covering the batch kernel's
    vectorised-scan lanes *and* its scalar fallbacks: warmup boundaries
    and instruction limits (lockstep stop conditions), BreakHammer,
    mechanism internals, a non-default scheduler and a gating mechanism
    (kernel-ineligible lanes), a single-rank geometry, and a gating
    mechanism whose vetoed cycles are skipped right up to the warmup
    boundary and to the instruction-limit stop (the vetoes the skipped
    cycles owe must be credited on those very ticks).  The
    multi-seed scenarios double as the batched-vs-solo corpus
    (:func:`repro.testing.fuzz.batch_differential` expands their seed
    axis into lanes of one lockstep batch).
    """

    both = ("fast", "batch")
    return [
        Scenario(seed=0, mix="MMLA", mechanism="graphene", nrh=64,
                 breakhammer=True, sim_cycles=1_200, entries_per_core=600,
                 attacker_entries=800, check_engines=both),
        Scenario(seed=1, mix="HHMA", mechanism="para", nrh=256,
                 breakhammer=False, sim_cycles=1_200, warmup_cycles=400,
                 entries_per_core=600, attacker_entries=800,
                 check_engines=both),
        Scenario(seed=2, mix="HMLA", mechanism="prac", nrh=16,
                 breakhammer=True, sim_cycles=1_600, instruction_limit=500,
                 entries_per_core=600, attacker_entries=800,
                 mitigation_kwargs=(("rfm_per_backoff", 2),),
                 check_engines=both),
        # Kernel-ineligible lanes: non-default scheduler / gating mechanism
        # run the ordinary scalar scan inside the lockstep loop.
        Scenario(seed=0, mix="MMDA", mechanism="hydra", nrh=64,
                 breakhammer=False, sim_cycles=1_200, scheduler="frfcfs",
                 entries_per_core=600, attacker_entries=800,
                 check_engines=both),
        Scenario(seed=3, mix="HLA", mechanism="blockhammer", nrh=64,
                 breakhammer=False, sim_cycles=1_200, ranks=1,
                 entries_per_core=600, attacker_entries=800,
                 check_engines=both),
        # Vetoes are pending across the gaps the fast engines jump before
        # the warmup tick (560) and before the stop tick (584), where the
        # slowest benign core reaches the instruction limit.
        Scenario(seed=0, mix="MMLA", mechanism="blockhammer", nrh=16,
                 breakhammer=True, sim_cycles=1_200, warmup_cycles=560,
                 instruction_limit=1_434, entries_per_core=600,
                 attacker_entries=800, check_engines=both),
        # Multi-seed: expanded into lanes by the batched-vs-solo check.
        Scenario(seed=0, mix="MMLA", mechanism="rfm", nrh=128,
                 breakhammer=True, sim_cycles=1_200, entries_per_core=600,
                 attacker_entries=800, extra_seeds=(1, 2),
                 check_engines=both),
        Scenario(seed=0, mix="HHMA", mechanism="graphene", nrh=128,
                 breakhammer=False, sim_cycles=1_200, entries_per_core=600,
                 attacker_entries=800, extra_seeds=(1,),
                 check_engines=both),
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


def cluster_corpus() -> List[Scenario]:
    """Cluster-shaped scenarios for the broker/worker differential.

    Like :func:`executor_corpus` these are harness-shaped and share one
    harness shape, so a single broker + worker fleet serves the whole
    batch; ``nrh=128`` (outside the random sampler's choice set) keeps
    their labels distinct from every sampled scenario.  They are part of
    the fixed :func:`fuzz_corpus`, and
    ``repro.testing.fuzz --jobs N`` replays them against a broker with N
    spawned local socket workers (``tests/test_cluster.py`` replays them
    in tier-1).
    """

    shape = dict(sim_cycles=1_200, entries_per_core=600,
                 attacker_entries=800, seed=0)
    grid = [
        ("MMLA", "para", 128, True, ()),
        ("HHMA", "graphene", 128, False, ()),
        ("MLLA", "prac", 128, True, ()),
        ("MMLL", "hydra", 128, False, ()),
        ("HMLA", "rfm", 128, True, ()),
        # Multi-seed grid points: the broker schedules the multiplied grid
        # across its workers; results must match the serial seed axis.
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
    changes = {
        "num_cores": len(scenario.mix),
        "scheduler": scenario.scheduler,
    }
    if scenario.mitigation_kwargs:
        changes["mitigation_kwargs"] = dict(scenario.mitigation_kwargs)
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

    return SimulationConfig(
        max_cycles=scenario.sim_cycles,
        engine=engine,
        instruction_limit=scenario.instruction_limit,
        warmup_cycles=scenario.warmup_cycles,
    )


def simplifications(scenario: Scenario) -> List[Scenario]:
    """Strictly simpler variants of ``scenario``, for the shrinker.

    Ordered most-aggressive first: dropping a core removes an entire trace,
    halving the budget halves the run, and clearing warmup / instruction
    limit / BreakHammer removes a whole contract dimension.  Machine-shape
    knobs (scheduler, ranks, compression) are left alone — changing them
    would change *which* bug is being reproduced.
    """

    candidates: List[Scenario] = []
    if len(scenario.mix) > 1:
        candidates.extend(
            replace(scenario, mix=scenario.mix[:i] + scenario.mix[i + 1:])
            for i in range(len(scenario.mix))
        )
    if scenario.sim_cycles > 400:
        shorter = scenario.sim_cycles // 2
        candidates.append(replace(
            scenario,
            sim_cycles=shorter,
            warmup_cycles=min(scenario.warmup_cycles, shorter // 2),
        ))
    if scenario.warmup_cycles:
        candidates.append(replace(scenario, warmup_cycles=0))
    if scenario.instruction_limit is not None:
        candidates.append(replace(scenario, instruction_limit=None))
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
