"""DRAM command vocabulary.

The memory controller communicates with the DRAM device model exclusively
through :class:`Command` objects.  Besides the standard DDR command set
(ACT/PRE/RD/WR/REF), the model includes the commands RowHammer mitigation
mechanisms rely on:

* ``VRR`` — a victim-row (preventive) refresh targeting the neighbours of an
  aggressor row.  Used by PARA, Graphene, Hydra, TWiCe, PRAC back-off
  servicing, and by the in-DRAM TRR window granted by RFM.
* ``RFM`` — the DDR5 Refresh-Management command: gives the DRAM die a time
  window to perform its own preventive maintenance.
* ``MIG`` — a row migration (copy) step used by AQUA's quarantine mechanism.

Commands carry the full DRAM coordinate tuple so that banks can update state
and the energy model can account for them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class CommandType(enum.Enum):
    """Every DRAM command the simulated controller can issue."""

    ACT = "ACT"  # activate a row (open it into the row buffer)
    PRE = "PRE"  # precharge (close) the open row of a bank
    PREA = "PREA"  # precharge all banks of a rank
    RD = "RD"  # read a column burst from the open row
    WR = "WR"  # write a column burst into the open row
    REF = "REF"  # periodic all-bank refresh
    VRR = "VRR"  # victim-row refresh (RowHammer-preventive refresh)
    RFM = "RFM"  # DDR5 refresh management command
    MIG = "MIG"  # row migration step (AQUA quarantine)

    # Members are singletons, so identity is equality: hashing by identity
    # in C spares the dicts keyed by command type (issue counts, energy,
    # bank handlers) a Python-level ``Enum.__hash__`` call per lookup.
    __hash__ = object.__hash__


# Category flags are assigned once as plain member attributes rather than
# properties: the controller and device models read them on every readiness
# probe, where the former tuple-membership properties dominated the profile.
# ``is_row_command``: ACT/PRE/PREA; ``is_column_command``: RD/WR;
# ``is_maintenance``: commands that preserve data integrity, not serve data.
for _member in CommandType:
    _member.is_row_command = _member.name in ("ACT", "PRE", "PREA")
    _member.is_column_command = _member.name in ("RD", "WR")
    _member.is_maintenance = _member.name in ("REF", "VRR", "RFM", "MIG")
del _member


@dataclass
class Command:
    """A single DRAM command with its target coordinates.

    ``row`` and ``column`` are optional for commands that do not address a
    specific row (e.g. REF, RFM).  ``source_thread`` carries the hardware
    thread responsible for the command when it is known; the mitigation
    mechanisms and BreakHammer use it for activation accounting.
    """

    kind: CommandType
    channel: int = 0
    rank: int = 0
    bank_group: int = 0
    bank: int = 0
    row: Optional[int] = None
    column: Optional[int] = None
    source_thread: Optional[int] = None

    def same_bank(self, other: "Command") -> bool:
        return (
            self.channel == other.channel
            and self.rank == other.rank
            and self.bank_group == other.bank_group
            and self.bank == other.bank
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        target = ""
        if self.row is not None:
            target = f" row={self.row}"
        if self.column is not None:
            target += f" col={self.column}"
        return (
            f"Command({self.kind.value} ch={self.channel} rk={self.rank} "
            f"bg={self.bank_group} ba={self.bank}{target})"
        )


def activate(channel: int, rank: int, bank_group: int, bank: int, row: int,
             thread: Optional[int] = None) -> Command:
    """Convenience constructor for an ACT command."""

    return Command(
        CommandType.ACT,
        channel=channel,
        rank=rank,
        bank_group=bank_group,
        bank=bank,
        row=row,
        source_thread=thread,
    )


def precharge(channel: int, rank: int, bank_group: int, bank: int) -> Command:
    """Convenience constructor for a PRE command."""

    return Command(
        CommandType.PRE,
        channel=channel,
        rank=rank,
        bank_group=bank_group,
        bank=bank,
    )


def victim_refresh(channel: int, rank: int, bank_group: int, bank: int,
                   row: int) -> Command:
    """Convenience constructor for a preventive (victim-row) refresh."""

    return Command(
        CommandType.VRR,
        channel=channel,
        rank=rank,
        bank_group=bank_group,
        bank=bank,
        row=row,
    )
