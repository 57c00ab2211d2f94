"""Workload characterisation (paper Table 3).

Table 3 summarises the most memory-intensive benchmarks by their row-buffer
misses per kilo-instruction (RBMPKI) and by the number of DRAM rows that
receive more than 512 / 128 / 64 activations within a 64 ms window — the
property that makes even benign applications capable of triggering
RowHammer-preventive actions at low thresholds.

:func:`characterize_trace` computes the same quantities for a synthetic
trace, counting rows through the MOP address mapping the simulations use;
:func:`characterize_suite` builds the whole table.  The module also
records the paper's published Table 3 rows so the benchmark harness can show
paper-vs-measured side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.cpu.trace import Trace
from repro.dram.address import AddressMapper, MappingScheme
from repro.dram.config import DeviceConfig


@dataclass(frozen=True)
class WorkloadCharacteristics:
    """One row of a Table 3-style characterisation."""

    name: str
    rbmpki: float
    rows_over_512: int
    rows_over_128: int
    rows_over_64: int
    distinct_rows: int
    memory_accesses: int
    instructions: int

    def as_row(self) -> Dict[str, object]:
        return {
            "Workload": self.name,
            "RBMPKI": round(self.rbmpki, 2),
            "ACT-512+": self.rows_over_512,
            "ACT-128+": self.rows_over_128,
            "ACT-64+": self.rows_over_64,
        }


#: The paper's published Table 3 (RBMPKI and per-window activation counts).
PAPER_TABLE3: List[Dict[str, object]] = [
    {"Workload": "429.mcf", "RBMPKI": 68.27, "ACT-512+": 2564, "ACT-128+": 2564, "ACT-64+": 2564},
    {"Workload": "470.lbm", "RBMPKI": 28.09, "ACT-512+": 664, "ACT-128+": 6596, "ACT-64+": 7089},
    {"Workload": "462.libquantum", "RBMPKI": 25.95, "ACT-512+": 0, "ACT-128+": 0, "ACT-64+": 1},
    {"Workload": "549.fotonik3d", "RBMPKI": 25.28, "ACT-512+": 0, "ACT-128+": 88, "ACT-64+": 10065},
    {"Workload": "459.GemsFDTD", "RBMPKI": 24.93, "ACT-512+": 0, "ACT-128+": 218, "ACT-64+": 10572},
    {"Workload": "519.lbm", "RBMPKI": 24.37, "ACT-512+": 2482, "ACT-128+": 5455, "ACT-64+": 5824},
    {"Workload": "434.zeusmp", "RBMPKI": 22.24, "ACT-512+": 292, "ACT-128+": 4825, "ACT-64+": 11085},
    {"Workload": "510.parest", "RBMPKI": 17.79, "ACT-512+": 94, "ACT-128+": 185, "ACT-64+": 803},
]


def characterize_trace(trace: Trace,
                       device: Optional[DeviceConfig] = None,
                       mapping: MappingScheme = MappingScheme.MOP,
                       window_entries: Optional[int] = None
                       ) -> WorkloadCharacteristics:
    """Compute Table 3 quantities for one trace.

    RBMPKI here counts *memory accesses* per kilo-instruction at trace level
    (an upper bound on row-buffer misses; the LLC filters some of them at
    simulation time), which is sufficient for assigning intensity buckets.
    """

    device = device or DeviceConfig.ddr5_4800(rows_per_bank=4096)
    mapper = AddressMapper(device, mapping)
    stats = trace.characterize(mapper, window_entries=window_entries)
    return WorkloadCharacteristics(
        name=trace.name,
        rbmpki=stats.rbmpki,
        rows_over_512=stats.rows_over_512,
        rows_over_128=stats.rows_over_128,
        rows_over_64=stats.rows_over_64,
        distinct_rows=stats.distinct_rows,
        memory_accesses=stats.memory_accesses,
        instructions=stats.instructions,
    )


def characterize_suite(traces: Sequence[Trace],
                       device: Optional[DeviceConfig] = None,
                       mapping: MappingScheme = MappingScheme.MOP
                       ) -> List[WorkloadCharacteristics]:
    """Characterise a list of traces, sorted by descending RBMPKI."""

    rows = [characterize_trace(trace, device, mapping) for trace in traces]
    return sorted(rows, key=lambda r: r.rbmpki, reverse=True)


def average_row(rows: Sequence[WorkloadCharacteristics]) -> Dict[str, object]:
    """The "Average" summary row of Table 3."""

    if not rows:
        raise ValueError("need at least one characterised workload")
    n = len(rows)
    return {
        "Workload": "Average",
        "RBMPKI": round(sum(r.rbmpki for r in rows) / n, 3),
        "ACT-512+": round(sum(r.rows_over_512 for r in rows) / n),
        "ACT-128+": round(sum(r.rows_over_128 for r in rows) / n),
        "ACT-64+": round(sum(r.rows_over_64 for r in rows) / n),
    }
