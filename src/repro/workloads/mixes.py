"""Workload mixes.

The paper builds six benign four-core mixes (HHHH, HHMM, MMMM, HHLL, MMLL,
LLLL) and six attack mixes in which the last application is replaced by the
malicious hammering thread (HHHA, HHMA, MMMA, HLLA, MMLA, LLLA).  A
:class:`WorkloadMix` bundles the per-core traces with the attacker-thread
set so the simulator and the metrics know which cores are benign.

Each core's addresses are placed in a disjoint region of physical memory (as
separate processes would be), except the attacker, whose addresses are
crafted against specific DRAM rows.
"""

from __future__ import annotations

import dataclasses
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.cpu.trace import Trace
from repro.dram.address import MappingScheme
from repro.dram.config import DeviceConfig
from repro.workloads.attacker import AttackerConfig, generate_attacker_trace
from repro.workloads.dma import DmaConfig, generate_dma_trace
from repro.workloads.synthetic import (
    BenignConfig,
    MemoryIntensity,
    generate_benign_trace,
)

#: The paper's benign mixes (Fig. 13-17).
BENIGN_MIXES: List[str] = ["HHHH", "HHMM", "MMMM", "HHLL", "MMLL", "LLLL"]

#: The paper's attack mixes (Fig. 6-12); ``A`` denotes the attacker.
ATTACK_MIXES: List[str] = ["HHHA", "HHMA", "MMMA", "HLLA", "MMLA", "LLLA"]

#: Attacker mix letters -> hammering geometry (``A`` is the paper's
#: double-sided attacker; ``S`` and ``X`` place the many-sided and
#: half-double pattern variants, see :data:`repro.workloads.attacker
#: .ATTACK_PATTERNS`).
ATTACKER_LETTERS: Dict[str, str] = {
    "A": "double_sided",
    "S": "many_sided",
    "X": "half_double",
}

#: Short attacker-trace name tags, one per attacker letter (distinct names
#: keep the per-trace standalone-IPC cache keys from aliasing).
_ATTACKER_TAGS: Dict[str, str] = {"A": "", "S": "ms_", "X": "hd_"}

#: Every letter :func:`make_mix` can place on a core.
MIX_LETTER_SET = frozenset("HMLD") | frozenset(ATTACKER_LETTERS)


@dataclass
class WorkloadMix:
    """A named multi-core workload."""

    name: str
    traces: List[Trace]
    attacker_threads: List[int] = field(default_factory=list)

    @property
    def num_cores(self) -> int:
        return len(self.traces)

    @property
    def benign_threads(self) -> List[int]:
        return [
            i for i in range(self.num_cores) if i not in self.attacker_threads
        ]

    @property
    def has_attacker(self) -> bool:
        return bool(self.attacker_threads)

    def intensity_letters(self) -> str:
        return self.name


def mix_names(with_attacker: bool) -> List[str]:
    """The canonical mix-name list for attack or all-benign studies."""

    return list(ATTACK_MIXES if with_attacker else BENIGN_MIXES)


def offset_trace(trace: Trace, offset_bytes: int) -> Trace:
    """Shift every address in ``trace`` by ``offset_bytes``."""

    bubbles, addresses, flags = trace.columns
    shifted = array(addresses.typecode,
                    (address + offset_bytes for address in addresses))
    return Trace.from_columns(array(bubbles.typecode, bubbles), shifted,
                              bytearray(flags), name=trace.name,
                              loop=trace.loop)


def make_mix(
    name: str,
    device: Optional[DeviceConfig] = None,
    mapping: MappingScheme = MappingScheme.MOP,
    entries_per_core: int = 20_000,
    attacker_entries: int = 30_000,
    seed: int = 0,
    region_bytes: int = 64 * 1024 * 1024,
    attacker_config: Optional[AttackerConfig] = None,
) -> WorkloadMix:
    """Build a four-core (or arbitrary-length) workload mix by name.

    ``name`` is a string of intensity letters (``H``, ``M``, ``L``) with an
    optional trailing/embedded attacker letter, e.g. ``"HHMA"``: ``A`` is
    the paper's double-sided attacker, ``S`` the many-sided variant and
    ``X`` the half-double variant (see :data:`ATTACKER_LETTERS`).
    A ``D`` places a DMA-style cache-bypassing streaming workload (see
    :mod:`repro.workloads.dma`) on that core; like benign cores it gets its
    own physical-memory region, and it is *not* an attacker thread.
    ``seed`` varies the benign traces so several instances of the same mix
    (the paper uses 15 per mix) are statistically distinct.

    Unknown letters are rejected here, up front, with the available
    alphabet — not deep inside trace generation.
    """

    unknown = set(name.upper()) - MIX_LETTER_SET
    if unknown:
        raise ValueError(
            f"mix {name!r} uses unknown workload letters {sorted(unknown)}; "
            f"available letters: {', '.join(sorted(MIX_LETTER_SET))}"
        )

    device = device or DeviceConfig.ddr5_4800(rows_per_bank=4096)
    traces: List[Trace] = []
    attacker_threads: List[int] = []

    for core_index, letter in enumerate(name.upper()):
        if letter in ATTACKER_LETTERS:
            pattern = ATTACKER_LETTERS[letter]
            config = attacker_config or AttackerConfig(
                entries=attacker_entries, seed=seed
            )
            if config.pattern != pattern:
                config = dataclasses.replace(config, pattern=pattern)
            trace = generate_attacker_trace(
                device=device,
                config=config,
                mapping=mapping,
                name=f"attacker_{_ATTACKER_TAGS[letter]}{seed}",
            )
            attacker_threads.append(core_index)
            traces.append(trace)
            continue
        if letter == "D":
            trace = generate_dma_trace(
                DmaConfig(entries=entries_per_core,
                          seed=seed * 101 + core_index),
                name=f"D{core_index}_{seed}",
            )
            traces.append(offset_trace(trace,
                                       (core_index + 1) * region_bytes))
            continue
        intensity = MemoryIntensity.from_letter(letter)
        benign_config = BenignConfig.for_intensity(
            intensity, seed=seed * 101 + core_index, entries=entries_per_core
        )
        trace = generate_benign_trace(
            benign_config,
            name=f"{letter}{core_index}_{seed}",
        )
        # Place each benign core in its own region of physical memory;
        # region 0 is reserved so benign rows do not collide with the
        # attacker's low-row aggressors.
        trace = offset_trace(trace, (core_index + 1) * region_bytes)
        traces.append(trace)

    return WorkloadMix(name=name.upper(), traces=traces,
                       attacker_threads=attacker_threads)


def make_all_mixes(with_attacker: bool,
                   device: Optional[DeviceConfig] = None,
                   seeds: Sequence[int] = (0,),
                   **kwargs) -> Dict[str, List[WorkloadMix]]:
    """Build every canonical mix for each seed, keyed by mix name."""

    result: Dict[str, List[WorkloadMix]] = {}
    for name in mix_names(with_attacker):
        result[name] = [
            make_mix(name, device=device, seed=seed, **kwargs) for seed in seeds
        ]
    return result
