"""DMA-style streaming workload generation.

BreakHammer's §4.4 extension throttles request generators that have no
cache in front of them — DMA engines, accelerators, cacheless cores — by
capping their *outstanding* requests instead of their cache-miss buffers.
The model has no separate counter table for them: this module generates
traces that behave like a DMA engine's access stream and run on a core,
where the MSHR quota stands in for that cap:

* every access bypasses the cache hierarchy (``bypass_cache=True``), so it
  always reaches DRAM.  Each read occupies an MSHR slot, so the quota
  gates reads; a write enters the controller's write queue without one,
  so no quota gates a write stream;
* accesses stream sequentially through a buffer in fixed-size bursts — the
  row-buffer-friendly pattern of a real copy/fill engine — with a
  configurable read/write split (a copy is reads, a fill is writes);
* a small inter-burst gap models the engine's descriptor fetch / pacing.

The ``"D"`` letter in :func:`repro.workloads.mixes.make_mix` places one of
these streams on a core, so mixes like ``"HMDA"`` pit benign, DMA, and
attacker traffic against each other under one mitigation.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from typing import Optional

from repro.cpu.trace import FLAG_BYPASS, FLAG_WRITE, Trace


@dataclass(frozen=True)
class DmaConfig:
    """Parameters of a DMA-style streaming trace."""

    entries: int = 4_000
    #: Size of the buffer the engine streams over (wraps around).
    buffer_bytes: int = 1024 * 1024
    #: Consecutive cachelines touched per burst before the inter-burst gap.
    burst_lines: int = 8
    #: Non-memory "instructions" between bursts (descriptor fetch/pacing);
    #: intra-burst accesses are back to back.
    gap_bubbles: int = 4
    #: Fraction of accesses that are writes (0.0 = pure copy source read
    #: stream, 1.0 = pure fill).
    write_fraction: float = 0.5
    cacheline_bytes: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.entries <= 0:
            raise ValueError("a DMA trace needs at least one entry")
        if self.burst_lines <= 0:
            raise ValueError("burst_lines must be positive")
        if self.cacheline_bytes <= 0:
            raise ValueError("cacheline_bytes must be positive")
        if self.gap_bubbles < 0:
            raise ValueError("gap_bubbles cannot be negative")
        if self.buffer_bytes < self.cacheline_bytes:
            raise ValueError("buffer must hold at least one cacheline")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write_fraction must be within [0, 1]")


def generate_dma_trace(config: Optional[DmaConfig] = None,
                       name: str = "dma") -> Trace:
    """Generate a cache-bypassing streaming trace from ``config``."""

    config = config or DmaConfig()
    rng = random.Random(config.seed)
    lines_in_buffer = max(1, config.buffer_bytes // config.cacheline_bytes)

    bubbles = array("q")
    addresses = array("Q")
    flags = bytearray()
    line = rng.randrange(lines_in_buffer)
    for index in range(config.entries):
        at_burst_start = index % config.burst_lines == 0
        bubbles.append(config.gap_bubbles if at_burst_start and index else 0)
        addresses.append(line * config.cacheline_bytes)
        flag = FLAG_BYPASS
        if rng.random() < config.write_fraction:
            flag |= FLAG_WRITE
        flags.append(flag)
        line = (line + 1) % lines_in_buffer

    return Trace.from_columns(bubbles, addresses, flags, name=name, loop=True)
