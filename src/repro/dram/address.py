"""Physical-address to DRAM-coordinate mapping.

The memory controller maps cacheline-aligned physical addresses onto
``(channel, rank, bank_group, bank, row, column)`` tuples.  The paper's
configuration uses the MOP (Minimalist Open-Page) mapping [Kaseridis+,
MICRO'11], which places a small number of consecutive cachelines in the same
row before striping across banks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from repro.dram.config import DeviceConfig


class MappingScheme(enum.Enum):
    """Supported address-interleaving schemes (the paper's MOP only)."""

    MOP = "mop"


@dataclass(frozen=True)
class DramAddress:
    """A fully decoded DRAM coordinate."""

    channel: int
    rank: int
    bank_group: int
    bank: int
    row: int
    column: int

    # cached_property writes straight into __dict__, which a frozen
    # dataclass permits; both keys sit on scheduler/mitigation hot paths
    # where recomputing the tuple per access dominated the profile.
    @cached_property
    def bank_key(self) -> tuple:
        """Hashable identity of the bank this address maps to."""

        return (self.channel, self.rank, self.bank_group, self.bank)

    @cached_property
    def row_key(self) -> tuple:
        """Hashable identity of the row this address maps to."""

        return (self.channel, self.rank, self.bank_group, self.bank, self.row)


#: Consecutive cachelines MOP keeps in one row before switching banks
#: (the paper's mapping uses four-line blocks).
MOP_LINES = 4


def _split(value: int, size: int) -> tuple:
    """Split ``value`` into ``(value // size, value % size)``."""

    return value // size, value % size


class AddressMapper:
    """Maps cacheline addresses to DRAM coordinates and back."""

    def __init__(self, config: DeviceConfig,
                 scheme: MappingScheme = MappingScheme.MOP) -> None:
        self.config = config
        self.scheme = scheme
        # MOP blocks per row, shared by map() and reverse().
        self._blocks_per_row = max(1, config.cachelines_per_row // MOP_LINES)
        # Decoded-coordinate memo, keyed by cacheline (every byte address
        # in a line shares one immutable DramAddress): traces loop over a
        # bounded footprint, so the controller decodes the same lines over
        # and over.  Bounded so a streaming workload with an enormous
        # footprint degrades to plain decoding instead of unbounded memory.
        self._decode_cache: dict = {}

    #: Decoded lines retained before the memo resets (~tens of MB worst
    #: case); far above any current trace footprint.
    DECODE_CACHE_LIMIT = 1 << 20

    # ------------------------------------------------------------------ #
    def map(self, address: int) -> DramAddress:
        """Decode a byte address into a DRAM coordinate."""

        line = address // self.config.cacheline_bytes
        cached = self._decode_cache.get(line)
        if cached is not None:
            return cached
        coordinate = self._map_mop(line)
        if len(self._decode_cache) >= self.DECODE_CACHE_LIMIT:
            self._decode_cache.clear()
        self._decode_cache[line] = coordinate
        return coordinate

    def reverse(self, coordinate: DramAddress) -> int:
        """Re-encode a coordinate into a representative byte address.

        ``map(reverse(x)) == x`` for every valid coordinate, which the test
        suite uses to verify that the mapping is a bijection.  Out-of-range
        rows/columns are wrapped into the device geometry.
        """

        cfg = self.config
        coordinate = DramAddress(
            channel=coordinate.channel % cfg.channels,
            rank=coordinate.rank % cfg.ranks,
            bank_group=coordinate.bank_group % cfg.bank_groups,
            bank=coordinate.bank % cfg.banks_per_group,
            row=coordinate.row % cfg.rows_per_bank,
            column=coordinate.column % cfg.cachelines_per_row,
        )
        # column stores the cacheline offset within the row directly.
        block_in_row = coordinate.column // MOP_LINES
        line_in_block = coordinate.column % MOP_LINES
        bank_linear = (
            (coordinate.rank * cfg.bank_groups + coordinate.bank_group)
            * cfg.banks_per_group
            + coordinate.bank
        )
        banks = cfg.ranks * cfg.banks_per_rank
        line = (
            (
                (coordinate.row * self._blocks_per_row + block_in_row)
                * banks
                + bank_linear
            )
            * MOP_LINES
            + line_in_block
        ) * cfg.channels + coordinate.channel
        return line * cfg.cacheline_bytes

    # ------------------------------------------------------------------ #
    def _decompose_bank(self, bank_linear: int) -> tuple:
        cfg = self.config
        rank, rest = _split(bank_linear, cfg.banks_per_rank)
        bank_group, bank = _split(rest, cfg.banks_per_group)
        return rank % cfg.ranks, bank_group, bank

    def _map_mop(self, line: int) -> DramAddress:
        """MOP: channel | mop-block | bank | row-block | row."""

        cfg = self.config
        rest, channel = _split(line, cfg.channels)
        rest, line_in_block = _split(rest, MOP_LINES)
        banks = cfg.ranks * cfg.banks_per_rank
        rest, bank_linear = _split(rest, banks)
        row, block_in_row = _split(rest, self._blocks_per_row)
        rank, bank_group, bank = self._decompose_bank(bank_linear)
        column = block_in_row * MOP_LINES + line_in_block
        return DramAddress(
            channel=channel,
            rank=rank,
            bank_group=bank_group,
            bank=bank,
            row=row % cfg.rows_per_bank,
            column=column % cfg.cachelines_per_row,
        )

    # ------------------------------------------------------------------ #
    def address_for_row(self, channel: int, rank: int, bank_group: int,
                        bank: int, row: int, column: int = 0) -> int:
        """Construct a byte address that maps to the given row.

        Workload generators use this to craft access streams that hammer a
        specific DRAM row.
        """

        return self.reverse(
            DramAddress(channel, rank, bank_group, bank, row, column)
        )
