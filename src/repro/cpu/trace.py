"""Memory-access traces.

A trace is the unit a core executes: an ordered sequence of
:class:`TraceEntry` records, each describing a burst of non-memory
instructions followed by one memory access (the same "bubble count + address"
format Ramulator-style trace-driven cores consume).

Storage is **columnar**: a trace holds three parallel arrays — bubble
counts, addresses, and a packed flag byte (write / cache-bypass bits) —
rather than a Python list of entry objects.  The columns are ``array``
module buffers, so a trace of N entries costs a few machine words per entry,
pickles to workers as three compact byte blobs, and can be written to /
read from disk without parsing text.  ``TraceEntry`` objects are
materialised lazily (once, on first indexed access) so the simulation hot
path — :class:`TraceCursor` feeding a core — still reads a plain Python
list exactly as before.

Traces can be generated synthetically (see :mod:`repro.workloads`), saved to
and loaded from a simple text format or the binary columnar format, and
characterised (RBMPKI, per-row activation pressure) for the paper's Table 3.
"""

from __future__ import annotations

import io
import struct
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

try:  # numpy accelerates characterisation; the scalar path is always there
    import numpy as _np
except ImportError:  # pragma: no cover - the CI image ships numpy
    _np = None

#: Flag bits of the packed per-entry flag column.
FLAG_WRITE = 0x1
FLAG_BYPASS = 0x2

#: Magic + version header of the binary columnar trace format.
_COLUMNAR_MAGIC = b"RTRC"
_COLUMNAR_VERSION = 1

#: Array typecodes of the columns (bubble, address, flags).
_BUBBLE_TYPECODE = "q"
_ADDRESS_TYPECODE = "Q"


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

    Internally the trace is three parallel columns; the ``entries``
    property (and therefore indexing and iteration) materialises
    :class:`TraceEntry` objects once, on demand, and caches the list.
    Columnar constructors (:meth:`from_columns`) skip per-entry object
    construction entirely, which is how the synthetic generators build
    traces cheaply.
    """

    def __init__(self, entries: Sequence[TraceEntry], name: str = "trace",
                 loop: bool = True) -> None:
        entry_list = list(entries)  # materialise once: input may be a generator
        bubbles = array(_BUBBLE_TYPECODE)
        addresses = array(_ADDRESS_TYPECODE)
        flags = bytearray()
        for entry in entry_list:
            bubbles.append(entry.bubble_count)
            addresses.append(entry.address)
            flags.append(entry.flags)
        self._init_columns(bubbles, addresses, flags, name, loop)
        # The caller handed us real entry objects; keep them as the
        # materialised view instead of rebuilding them on first access.
        self._entries = entry_list

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
        self._entries: Optional[List[TraceEntry]] = None

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

        Borrowed, treat as read-only: mutating them would desync the
        columnar data from any already-materialised ``entries`` view.
        Constructors copy (see :meth:`from_columns`), so feeding one
        trace's columns into another never shares state.
        """

        return self._bubbles, self._addresses, self._flags

    @property
    def entries(self) -> List[TraceEntry]:
        """The materialised entry-object view (built once, cached)."""

        if self._entries is None:
            self._entries = [
                TraceEntry(bubble, address,
                           bool(flag & FLAG_WRITE), bool(flag & FLAG_BYPASS))
                for bubble, address, flag in zip(
                    self._bubbles, self._addresses, self._flags
                )
            ]
        return self._entries

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._bubbles)

    def __iter__(self) -> Iterator[TraceEntry]:
        return iter(self.entries)

    def __getitem__(self, index: int) -> TraceEntry:
        return self.entries[index]

    @property
    def total_instructions(self) -> int:
        return sum(self._bubbles) + len(self._bubbles)

    @property
    def memory_accesses(self) -> int:
        return len(self._bubbles)

    @property
    def write_fraction(self) -> float:
        if _np is not None:
            flags = _np.frombuffer(self._flags, dtype=_np.uint8)
            return int((flags & FLAG_WRITE).astype(bool).sum()) \
                / len(self._flags)
        writes = sum(1 for flag in self._flags if flag & FLAG_WRITE)
        return writes / len(self._flags)

    def cursor(self) -> "TraceCursor":
        return TraceCursor(self)

    # ------------------------------------------------------------------ #
    # Pickling ships only the columns, never the materialised objects,
    # so sending a trace to a worker process costs three byte blobs.
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
        """Write the trace in ``bubble address R|W`` text format."""

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
        bubbles = array(_BUBBLE_TYPECODE)
        addresses = array(_ADDRESS_TYPECODE)
        flags = bytearray()
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) < 2:
                raise ValueError(
                    f"malformed trace line {line_number}: {stripped!r}"
                )
            bubble = int(parts[0])
            address = int(parts[1], 0)
            if bubble < 0 or address < 0:
                raise ValueError(
                    f"negative field on trace line {line_number}: {stripped!r}"
                )
            kind = parts[2].upper() if len(parts) > 2 else "R"
            bubbles.append(bubble)
            addresses.append(address)
            flags.append(
                (FLAG_WRITE if kind.startswith("W") else 0)
                | (FLAG_BYPASS if kind.endswith("!") else 0)
            )
        return cls.from_columns(bubbles, addresses, flags, name=name,
                                loop=loop)

    # ------------------------------------------------------------------ #
    # Persistence (binary columnar format)
    # ------------------------------------------------------------------ #
    def dump_columnar(self, path: Path | str) -> None:
        """Write the raw columns to ``path`` (compact binary format).

        Layout: magic, version, name, entry count, then the three column
        byte blobs back to back.  Loading is a seek-free ``frombytes`` per
        column — no per-line parsing, no per-entry objects.
        """

        name_bytes = self.name.encode("utf-8")
        # Column payloads are written in native byte order (array.tobytes),
        # so the header records which one; load_columnar byte-swaps when
        # reading on a machine of the opposite endianness.
        header = _COLUMNAR_MAGIC + struct.pack(
            "<BBBH", _COLUMNAR_VERSION, 1 if self.loop else 0,
            1 if sys.byteorder == "little" else 0, len(name_bytes)
        )
        with Path(path).open("wb") as handle:
            handle.write(header)
            handle.write(name_bytes)
            handle.write(struct.pack("<Q", len(self)))
            handle.write(self._bubbles.tobytes())
            handle.write(self._addresses.tobytes())
            handle.write(bytes(self._flags))

    @staticmethod
    def _parse_columnar_header(data: bytes,
                               path) -> Tuple[str, bool, bool, int, int]:
        """Validate a columnar file's header.

        Returns ``(name, loop, swap, count, offset)`` where ``offset`` is
        the start of the bubble column.
        """

        if data[:4] != _COLUMNAR_MAGIC:
            raise ValueError(f"{path}: not a columnar trace file")
        if len(data) < 9:  # magic + BBBH header
            raise ValueError(f"{path}: truncated columnar trace file")
        version, loop_byte, little_endian, name_length = \
            struct.unpack_from("<BBBH", data, 4)
        if version != _COLUMNAR_VERSION:
            raise ValueError(
                f"{path}: unsupported columnar trace version {version}"
            )
        swap = bool(little_endian) != (sys.byteorder == "little")
        offset = 9
        name_bytes = data[offset:offset + name_length]
        if len(name_bytes) != name_length or len(data) < offset + name_length + 8:
            raise ValueError(f"{path}: truncated columnar trace file")
        name = name_bytes.decode("utf-8")
        offset += name_length
        (count,) = struct.unpack_from("<Q", data, offset)
        offset += 8
        return name, bool(loop_byte), swap, count, offset

    @classmethod
    def load_columnar(cls, path: Path | str) -> "Trace":
        """Load a trace written by :meth:`dump_columnar`.

        Columns written on a host of the other endianness are
        byte-swapped on the way in.
        """

        data = Path(path).read_bytes()
        name, loop, swap, count, offset = \
            cls._parse_columnar_header(data, path)
        bubbles = array(_BUBBLE_TYPECODE)
        bubble_bytes = count * bubbles.itemsize
        try:
            bubbles.frombytes(data[offset:offset + bubble_bytes])
        except ValueError as exc:
            raise ValueError(f"{path}: truncated columnar trace file") from exc
        offset += bubble_bytes
        addresses = array(_ADDRESS_TYPECODE)
        address_bytes = count * addresses.itemsize
        try:
            addresses.frombytes(data[offset:offset + address_bytes])
        except ValueError as exc:
            raise ValueError(f"{path}: truncated columnar trace file") from exc
        offset += address_bytes
        if swap:
            bubbles.byteswap()
            addresses.byteswap()
        flags = bytearray(data[offset:offset + count])
        # Every column must hold exactly `count` items: a file truncated at
        # an 8-byte boundary parses into *short* arrays, which the
        # per-column frombytes calls cannot see on their own.
        if not (len(bubbles) == len(addresses) == len(flags) == count):
            raise ValueError(f"{path}: truncated columnar trace file")
        return cls.from_columns(bubbles, addresses, flags, name=name,
                                loop=loop)

    # ------------------------------------------------------------------ #
    def characterize(self, mapper, window_entries: Optional[int] = None,
                     backend: str = "auto") -> TraceWindowStats:
        """Summarise the trace the way the paper's Table 3 does.

        ``mapper`` is a :class:`repro.dram.address.AddressMapper`; rows are
        counted in DRAM-coordinate space so the result reflects the actual
        activation pressure the trace can exert.

        ``backend`` selects the implementation: ``"numpy"`` vectorises over
        the address column (one ``map_row_ids`` + ``np.unique`` pass, no
        per-entry Python work), ``"scalar"`` is the reference loop, and
        ``"auto"`` (default) uses numpy when it is importable.  The two
        backends are result-identical
        (``tests/test_characterize_numpy.py``).
        """

        if backend not in ("auto", "scalar", "numpy"):
            raise ValueError(f"unknown characterize backend {backend!r}")
        if backend == "numpy" and _np is None:
            raise RuntimeError("numpy backend requested but numpy is "
                               "not installed")
        end = window_entries if window_entries else len(self)
        if backend != "scalar" and _np is not None:
            return self._characterize_numpy(mapper, end)
        return self._characterize_scalar(mapper, end)

    def _characterize_scalar(self, mapper, end: int) -> TraceWindowStats:
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

    def _characterize_numpy(self, mapper, end: int) -> TraceWindowStats:
        # The address column is array('Q'): a zero-copy uint64 view.
        addresses = _np.frombuffer(self._addresses, dtype=_np.uint64)[:end]
        row_ids = mapper.map_row_ids(addresses)
        _rows, counts = _np.unique(row_ids, return_counts=True)
        memory_accesses = int(addresses.size)
        bubbles = _np.frombuffer(self._bubbles, dtype=_np.int64)[:end]
        # Sums return to Python ints before the float division, so rbmpki
        # is bit-identical to the scalar path.
        instructions = int(bubbles.sum()) + memory_accesses
        rbmpki = (
            1000.0 * memory_accesses / instructions if instructions else 0.0
        )
        return TraceWindowStats(
            instructions=instructions,
            memory_accesses=memory_accesses,
            distinct_rows=int(counts.size),
            rows_over_512=int((counts > 512).sum()),
            rows_over_128=int((counts > 128).sum()),
            rows_over_64=int((counts > 64).sum()),
            rbmpki=rbmpki,
        )


class TraceCursor:
    """An iterator over a trace that can loop and reports progress."""

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self.position = 0
        self.wraps = 0
        self.entries_consumed = 0

    @property
    def exhausted(self) -> bool:
        return not self.trace.loop and self.position >= len(self.trace)

    def peek(self) -> Optional[TraceEntry]:
        if self.exhausted:
            return None
        return self.trace[self.position % len(self.trace)]

    def advance(self) -> Optional[TraceEntry]:
        entry = self.peek()
        if entry is None:
            return None
        self.position += 1
        self.entries_consumed += 1
        if self.trace.loop and self.position >= len(self.trace):
            self.position = 0
            self.wraps += 1
        return entry
