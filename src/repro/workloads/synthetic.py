"""Synthetic benign workload generation.

The generators reproduce the workload *characteristics* the paper relies on
(Table 3) rather than any particular benchmark's instruction stream:

* **memory intensity** — the ratio of memory accesses to total instructions,
  which together with the LLC determines row-buffer misses per
  kilo-instruction (RBMPKI) and therefore the High / Medium / Low buckets;
* **spatial locality** — how many consecutive cachelines of a row are
  touched before jumping, which determines the row-buffer hit rate;
* **hot rows** — a subset of rows revisited frequently, which is what makes
  some benign applications (e.g. 429.mcf in Table 3) capable of triggering
  preventive actions on their own at low RowHammer thresholds.
"""

from __future__ import annotations

import enum
import random
from array import array
from dataclasses import dataclass
from typing import Optional

from repro.cpu.trace import FLAG_WRITE, Trace


class MemoryIntensity(enum.Enum):
    """The paper's three memory-intensity buckets."""

    HIGH = "H"
    MEDIUM = "M"
    LOW = "L"

    @classmethod
    def from_letter(cls, letter: str) -> "MemoryIntensity":
        mapping = {"H": cls.HIGH, "M": cls.MEDIUM, "L": cls.LOW}
        key = letter.upper()
        if key not in mapping:
            raise ValueError(f"unknown intensity letter {letter!r}")
        return mapping[key]


@dataclass(frozen=True)
class BenignConfig:
    """Parameters of a synthetic benign workload."""

    intensity: MemoryIntensity = MemoryIntensity.MEDIUM
    entries: int = 20_000
    footprint_bytes: int = 2 * 1024 * 1024
    # Average non-memory instructions between memory accesses.
    mean_bubble: int = 8
    # Probability that the next access stays in the current "stream"
    # (sequential cachelines), which yields row-buffer hits.
    streaming_probability: float = 0.35
    # Probability of revisiting a recently touched cacheline (temporal
    # locality → LLC hits); controls the effective RBMPKI bucket.
    reuse_probability: float = 0.35
    reuse_window: int = 512
    # Fraction of accesses that go to a small set of hot rows.
    hot_fraction: float = 0.1
    hot_rows: int = 8
    write_fraction: float = 0.25
    cacheline_bytes: int = 64
    row_bytes: int = 8192
    seed: int = 0

    @classmethod
    def for_intensity(cls, intensity: MemoryIntensity, seed: int = 0,
                      entries: int = 20_000) -> "BenignConfig":
        """Preset parameters per intensity bucket.

        High-intensity workloads have short bubbles, little temporal reuse,
        and footprints far larger than the LLC; low-intensity workloads have
        long bubbles and mostly cache-resident working sets.
        """

        if intensity is MemoryIntensity.HIGH:
            return cls(
                intensity=intensity,
                entries=entries,
                footprint_bytes=2 * 1024 * 1024,
                mean_bubble=8,
                streaming_probability=0.40,
                reuse_probability=0.40,
                hot_fraction=0.10,
                hot_rows=16,
                seed=seed,
            )
        if intensity is MemoryIntensity.MEDIUM:
            return cls(
                intensity=intensity,
                entries=entries,
                footprint_bytes=1024 * 1024,
                mean_bubble=16,
                streaming_probability=0.40,
                reuse_probability=0.50,
                hot_fraction=0.08,
                hot_rows=8,
                seed=seed,
            )
        return cls(
            intensity=intensity,
            entries=entries,
            footprint_bytes=192 * 1024,
            mean_bubble=40,
            streaming_probability=0.40,
            reuse_probability=0.55,
            hot_fraction=0.05,
            hot_rows=4,
            seed=seed,
        )


def generate_benign_trace(config: BenignConfig,
                          name: Optional[str] = None) -> Trace:
    """Generate a synthetic benign trace from ``config``."""

    rng = random.Random(config.seed)
    lines_in_footprint = max(1, config.footprint_bytes // config.cacheline_bytes)
    lines_per_row = max(1, config.row_bytes // config.cacheline_bytes)
    rows_in_footprint = max(1, lines_in_footprint // lines_per_row)

    hot_row_ids = [
        rng.randrange(rows_in_footprint) for _ in range(config.hot_rows)
    ] or [0]

    # Build the trace columns directly (no per-entry objects): a core
    # replays the columns themselves.
    bubbles = array("q")
    addresses = array("Q")
    flags = bytearray()
    recent_lines: list = []
    current_line = rng.randrange(lines_in_footprint)
    p_hot = config.hot_fraction
    p_reuse = p_hot + config.reuse_probability
    p_stream = p_reuse + config.streaming_probability
    for _ in range(config.entries):
        bubble = max(0, int(rng.expovariate(1.0 / max(1, config.mean_bubble))))
        roll = rng.random()
        if roll < p_hot:
            # Revisit a hot row at a random column.
            row = hot_row_ids[rng.randrange(len(hot_row_ids))]
            current_line = row * lines_per_row + rng.randrange(lines_per_row)
        elif roll < p_reuse and recent_lines:
            # Temporal locality: re-touch a recently used cacheline.
            current_line = recent_lines[rng.randrange(len(recent_lines))]
        elif roll < p_stream:
            # Continue the current stream.
            current_line = (current_line + 1) % lines_in_footprint
        else:
            # Jump somewhere else in the footprint.
            current_line = rng.randrange(lines_in_footprint)
        recent_lines.append(current_line)
        if len(recent_lines) > config.reuse_window:
            recent_lines.pop(0)
        bubbles.append(bubble)
        addresses.append(current_line * config.cacheline_bytes)
        flags.append(FLAG_WRITE if rng.random() < config.write_fraction else 0)

    label = name or f"benign_{config.intensity.value}_{config.seed}"
    return Trace.from_columns(bubbles, addresses, flags, name=label, loop=True)


def generate_intensity_trace(letter: str, seed: int = 0,
                             entries: int = 20_000) -> Trace:
    """Generate a benign trace from an intensity letter (``"H"/"M"/"L"``)."""

    intensity = MemoryIntensity.from_letter(letter)
    config = BenignConfig.for_intensity(intensity, seed=seed, entries=entries)
    return generate_benign_trace(config)
