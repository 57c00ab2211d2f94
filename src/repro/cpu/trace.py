"""Memory-access traces.

A trace is the unit a core executes: an ordered sequence of
:class:`TraceEntry` records, each describing a burst of non-memory
instructions followed by one memory access (the same "bubble count + address"
format Ramulator-style trace-driven cores consume).

Storage is **columnar**: a trace holds three parallel arrays — bubble
counts, addresses, and a packed flag byte (write / cache-bypass bits) —
rather than a Python list of entry objects.  The columns are ``array``
module buffers, so a trace of N entries costs a few machine words per entry
and pickles to workers as three compact byte blobs.  A simulated core reads
the columns at its :class:`TraceCursor`'s position, so no run builds a
:class:`TraceEntry`; indexing and iterating a trace build entries on
demand, and nothing caches them.

Traces can be generated synthetically (see :mod:`repro.workloads`), saved to
and loaded from the ``<bubble> <address> R|W[!]`` text format
(:meth:`Trace.dump`, :meth:`Trace.load`, :meth:`Trace.parse`), and
characterised (RBMPKI, per-row activation pressure) for the paper's Table 3
by one pass that decodes each address (:meth:`Trace.characterize`).
"""

from __future__ import annotations

import io
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Tuple

#: Flag bits of the packed per-entry flag column.
FLAG_WRITE = 0x1
FLAG_BYPASS = 0x2

#: Array typecodes of the columns (bubble, address, flags).
_BUBBLE_TYPECODE = "q"
_ADDRESS_TYPECODE = "Q"

#: The access kinds of the text format and the flag byte of each.
_KIND_FLAGS = {"R": 0, "W": FLAG_WRITE, "R!": FLAG_BYPASS,
               "W!": FLAG_WRITE | FLAG_BYPASS}


@dataclass(frozen=True)
class TraceEntry:
    """One trace record: ``bubble_count`` non-memory instructions, then a
    memory access to ``address`` (a write when ``is_write`` is ``True``).

    ``bypass_cache`` marks the access as non-cacheable: it always goes to
    DRAM.  Attack traces use it to model the cache-line flushing
    (``clflush``/eviction) every real RowHammer attack performs so that each
    access reaches a DRAM row.
    """

    bubble_count: int
    address: int
    is_write: bool = False
    bypass_cache: bool = False

    def __post_init__(self) -> None:
        if self.bubble_count < 0:
            raise ValueError("bubble_count must be non-negative")
        if self.address < 0:
            raise ValueError("address must be non-negative")

    @property
    def instructions(self) -> int:
        """Instructions represented by this entry (bubbles + 1 memory op)."""

        return self.bubble_count + 1

    @property
    def flags(self) -> int:
        """The packed flag byte this entry occupies in the flag column."""

        return (FLAG_WRITE if self.is_write else 0) | (
            FLAG_BYPASS if self.bypass_cache else 0
        )


def _entry(bubble: int, address: int, flag: int) -> TraceEntry:
    """The entry one row of the columns describes."""

    return TraceEntry(bubble, address, bool(flag & FLAG_WRITE),
                      bool(flag & FLAG_BYPASS))


@dataclass
class TraceWindowStats:
    """Characteristics of a trace over a time/interval window (Table 3)."""

    instructions: int
    memory_accesses: int
    distinct_rows: int
    rows_over_512: int
    rows_over_128: int
    rows_over_64: int
    rbmpki: float

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class Trace:
    """An ordered memory-access trace for one hardware thread.

    The trace is three parallel columns and nothing else.  Indexing and
    iteration build :class:`TraceEntry` objects on demand (for tests and
    tools); a simulated core reads the :attr:`columns` directly.
    Columnar constructors (:meth:`from_columns`) skip per-entry object
    construction entirely, which is how the synthetic generators build
    traces cheaply.
    """

    def __init__(self, entries: Iterable[TraceEntry], name: str = "trace",
                 loop: bool = True) -> None:
        bubbles = array(_BUBBLE_TYPECODE)
        addresses = array(_ADDRESS_TYPECODE)
        flags = bytearray()
        for entry in entries:
            bubbles.append(entry.bubble_count)
            addresses.append(entry.address)
            flags.append(entry.flags)
        self._init_columns(bubbles, addresses, flags, name, loop)

    def _init_columns(self, bubbles, addresses, flags, name: str,
                      loop: bool) -> None:
        if not (len(bubbles) == len(addresses) == len(flags)):
            raise ValueError("trace columns must have equal length")
        if not len(bubbles):
            raise ValueError("a trace must contain at least one entry")
        self._bubbles = bubbles
        self._addresses = addresses
        self._flags = flags
        self.name = name
        self.loop = loop

    @classmethod
    def from_columns(cls, bubbles: Iterable[int], addresses: Iterable[int],
                     flags: Iterable[int], name: str = "trace",
                     loop: bool = True) -> "Trace":
        """Build a trace directly from its columns (no per-entry objects).

        The inputs are always copied, so the trace never aliases
        caller-owned buffers (and two traces built from one
        :attr:`columns` tuple never share state).
        """

        bubble_col = array(_BUBBLE_TYPECODE, bubbles)
        address_col = array(_ADDRESS_TYPECODE, addresses)
        flag_col = bytearray(flags)
        if len(bubble_col) and min(bubble_col) < 0:
            raise ValueError("bubble_count must be non-negative")
        trace = cls.__new__(cls)
        trace._init_columns(bubble_col, address_col, flag_col, name, loop)
        return trace

    # ------------------------------------------------------------------ #
    # Columnar access
    # ------------------------------------------------------------------ #
    @property
    def columns(self) -> Tuple[array, array, bytearray]:
        """The (bubble, address, flag) columns backing this trace.

        Borrowed, treat as read-only: every core replaying the trace reads
        them.  Constructors copy (see :meth:`from_columns`), so feeding one
        trace's columns into another never shares state.
        """

        return self._bubbles, self._addresses, self._flags

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._bubbles)

    def __iter__(self) -> Iterator[TraceEntry]:
        for bubble, address, flag in zip(self._bubbles, self._addresses,
                                         self._flags):
            yield _entry(bubble, address, flag)

    def __getitem__(self, index: int) -> TraceEntry:
        return _entry(self._bubbles[index], self._addresses[index],
                      self._flags[index])

    @property
    def total_instructions(self) -> int:
        return sum(self._bubbles) + len(self._bubbles)

    @property
    def memory_accesses(self) -> int:
        return len(self._bubbles)

    @property
    def write_fraction(self) -> float:
        writes = sum(1 for flag in self._flags if flag & FLAG_WRITE)
        return writes / len(self._flags)

    def cursor(self) -> "TraceCursor":
        return TraceCursor(self)

    # ------------------------------------------------------------------ #
    # Pickling ships the columns as three byte blobs.
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        return {
            "name": self.name,
            "loop": self.loop,
            "bubbles": self._bubbles.tobytes(),
            "addresses": self._addresses.tobytes(),
            "flags": bytes(self._flags),
        }

    def __setstate__(self, state: dict) -> None:
        bubbles = array(_BUBBLE_TYPECODE)
        bubbles.frombytes(state["bubbles"])
        addresses = array(_ADDRESS_TYPECODE)
        addresses.frombytes(state["addresses"])
        self._init_columns(bubbles, addresses, bytearray(state["flags"]),
                           state["name"], state["loop"])

    # ------------------------------------------------------------------ #
    # Persistence (simple whitespace-separated text format)
    # ------------------------------------------------------------------ #
    def dump(self, path: Path | str) -> None:
        """Write the trace in the ``<bubble> <address> R|W[!]`` text format."""

        path = Path(path)
        with path.open("w", encoding="utf-8") as handle:
            self.write_to(handle)

    def write_to(self, handle: io.TextIOBase) -> None:
        for bubble, address, flag in zip(self._bubbles, self._addresses,
                                         self._flags):
            kind = "W" if flag & FLAG_WRITE else "R"
            if flag & FLAG_BYPASS:
                kind += "!"
            handle.write(f"{bubble} {address} {kind}\n")

    @classmethod
    def load(cls, path: Path | str, name: Optional[str] = None,
             loop: bool = True) -> "Trace":
        path = Path(path)
        with path.open("r", encoding="utf-8") as handle:
            return cls.parse(handle, name=name or path.stem, loop=loop)

    @classmethod
    def parse(cls, handle: Iterable[str], name: str = "trace",
              loop: bool = True) -> "Trace":
        """Parse ``<bubble> <address> [R|W|R!|W!]`` lines.

        ``bubble`` is decimal, ``address`` decimal or ``0x`` hex, and the
        kind defaults to ``R``; ``!`` marks a cache-bypassing access.
        Blank lines and ``#`` comments are skipped.  Any other line raises
        :class:`ValueError` naming its line number.
        """

        bubbles = array(_BUBBLE_TYPECODE)
        addresses = array(_ADDRESS_TYPECODE)
        flags = bytearray()
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if not 2 <= len(parts) <= 3:
                raise ValueError(
                    f"malformed trace line {line_number}: {stripped!r} "
                    "(expected '<bubble> <address> [R|W|R!|W!]')"
                )
            kind = parts[2] if len(parts) == 3 else "R"
            if kind not in _KIND_FLAGS:
                raise ValueError(
                    f"unknown access kind {kind!r} on trace line "
                    f"{line_number}: expected R, W, R! or W!"
                )
            try:
                bubble = int(parts[0])
                address = int(parts[1], 0)
            except ValueError:
                raise ValueError(
                    f"non-integer field on trace line {line_number}: "
                    f"{stripped!r}"
                ) from None
            if bubble < 0 or address < 0:
                raise ValueError(
                    f"negative field on trace line {line_number}: {stripped!r}"
                )
            try:
                bubbles.append(bubble)
                addresses.append(address)
            except OverflowError:
                raise ValueError(
                    f"field out of range on trace line {line_number}: "
                    f"{stripped!r}"
                ) from None
            flags.append(_KIND_FLAGS[kind])
        return cls.from_columns(bubbles, addresses, flags, name=name,
                                loop=loop)

    # ------------------------------------------------------------------ #
    def characterize(self, mapper, window_entries: Optional[int] = None
                     ) -> TraceWindowStats:
        """Summarise the trace the way the paper's Table 3 does.

        ``mapper`` is a :class:`repro.dram.address.AddressMapper`; rows are
        counted in DRAM-coordinate space so the result reflects the actual
        activation pressure the trace can exert.  ``window_entries`` limits
        the count to that prefix of the trace.
        """

        end = window_entries if window_entries else len(self)
        addresses = self._addresses[:end]
        row_counts: dict = {}
        for address in addresses:
            coord = mapper.map(address)
            row_counts[coord.row_key] = row_counts.get(coord.row_key, 0) + 1
        memory_accesses = len(addresses)
        instructions = sum(self._bubbles[:end]) + memory_accesses
        rbmpki = (
            1000.0 * memory_accesses / instructions if instructions else 0.0
        )
        return TraceWindowStats(
            instructions=instructions,
            memory_accesses=memory_accesses,
            distinct_rows=len(row_counts),
            rows_over_512=sum(1 for c in row_counts.values() if c > 512),
            rows_over_128=sum(1 for c in row_counts.values() if c > 128),
            rows_over_64=sum(1 for c in row_counts.values() if c > 64),
            rbmpki=rbmpki,
        )


class TraceCursor:
    """A position in a trace's columns that can loop and reports progress."""

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self.position = 0
        self.wraps = 0
        self._length = len(trace)

    @property
    def exhausted(self) -> bool:
        return not self.trace.loop and self.position >= self._length

    def advance(self) -> Optional[int]:
        """Consume one entry and return its index in the trace's columns,
        or ``None`` once a non-looping trace is exhausted."""

        index = self.position
        if index >= self._length:
            return None
        self.position = index + 1
        if self.position >= self._length and self.trace.loop:
            self.position = 0
            self.wraps += 1
        return index
