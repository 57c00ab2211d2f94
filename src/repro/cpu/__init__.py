"""CPU-side substrate: trace-driven cores, shared LLC, and MSHRs.

The paper's evaluation runs trace-driven cores (4-wide issue, 128-entry
instruction window) over a shared 8 MiB last-level cache.  BreakHammer's
throttling lever is the per-thread quota of LLC cache-miss buffers (MSHRs):
a suspect thread may only have ``Q_i`` outstanding LLC misses at a time.
Requesters without a cache (the paper's §4.4: DMA engines, accelerators)
run as cores whose traces bypass the LLC (the ``D`` mix letter); the
quota gates their reads, not their writes.

* :mod:`repro.cpu.trace` — memory-access traces and readers/writers,
* :mod:`repro.cpu.cache` — a set-associative last-level cache,
* :mod:`repro.cpu.mshr` — the miss-status-holding-register file with
  per-thread quotas,
* :mod:`repro.cpu.core_model` — the trace-driven core model.
"""

from repro.cpu.cache import CacheConfig, CacheStats, SetAssociativeCache
from repro.cpu.core_model import Core, CoreConfig, CoreStats
from repro.cpu.mshr import MshrEntry, MshrFile
from repro.cpu.trace import Trace, TraceEntry, TraceWindowStats

__all__ = [
    "CacheConfig",
    "CacheStats",
    "Core",
    "CoreConfig",
    "CoreStats",
    "MshrEntry",
    "MshrFile",
    "SetAssociativeCache",
    "Trace",
    "TraceEntry",
    "TraceWindowStats",
]
