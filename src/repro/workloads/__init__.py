"""Workload generation.

The paper drives its evaluation with memory traces of SPEC CPU2006/2017,
TPC, MediaBench, and YCSB applications, grouped by memory intensity into
High / Medium / Low buckets, plus a malicious application that mounts a
memory performance attack by triggering RowHammer-preventive actions.

Those proprietary trace files are not redistributable, so this package
generates synthetic equivalents calibrated to the observable characteristics
the paper reports (Table 3): misses-per-kilo-instruction buckets, row-buffer
locality, and per-row activation pressure.

* :mod:`repro.workloads.synthetic` — benign trace generators,
* :mod:`repro.workloads.attacker` — RowHammer/memory-performance attacker
  (double-sided, many-sided, and half-double hammering geometries),
* :mod:`repro.workloads.dma` — DMA-style cache-bypassing streams (§4.4),
* :mod:`repro.workloads.mixes` — the paper's workload mixes (HHHH … LLLA),
* :mod:`repro.workloads.characteristics` — Table 3 characterisation.

An external trace in the ``<bubble> <address> R|W[!]`` text format loads
with :meth:`repro.cpu.trace.Trace.load` and runs through
:class:`repro.sim.simulator.Simulator` like a generated one.
"""

from repro.workloads.attacker import AttackerConfig, generate_attacker_trace
from repro.workloads.dma import DmaConfig, generate_dma_trace
from repro.workloads.characteristics import (
    WorkloadCharacteristics,
    characterize_trace,
    characterize_suite,
)
from repro.workloads.mixes import (
    ATTACK_MIXES,
    BENIGN_MIXES,
    WorkloadMix,
    make_mix,
    mix_names,
)
from repro.workloads.synthetic import (
    BenignConfig,
    MemoryIntensity,
    generate_benign_trace,
)

__all__ = [
    "ATTACK_MIXES",
    "AttackerConfig",
    "BENIGN_MIXES",
    "BenignConfig",
    "DmaConfig",
    "MemoryIntensity",
    "WorkloadCharacteristics",
    "WorkloadMix",
    "characterize_suite",
    "characterize_trace",
    "generate_attacker_trace",
    "generate_benign_trace",
    "generate_dma_trace",
    "make_mix",
    "mix_names",
]
