"""Per-bank DRAM state machine.

A :class:`Bank` tracks the open row, enforces intra-bank timing constraints
(tRCD, tRP, tRAS, tRC, tWR, tRTP), counts row activations, and records the
statistics the rest of the system needs (row-buffer hits/misses/conflicts and
per-command counts).

Inter-bank and rank-level constraints (tRRD, tFAW, refresh blocking) are
enforced by :class:`repro.dram.device.Rank`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.dram.commands import Command, CommandType
from repro.dram.config import TimingCycles


class BankState(enum.Enum):
    """The row-buffer state of a bank."""

    CLOSED = "closed"
    OPEN = "open"
    BLOCKED = "blocked"  # busy with refresh / RFM / migration


@dataclass
class BankStats:
    """Counters maintained by each bank."""

    activations: int = 0
    precharges: int = 0
    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0
    preventive_refreshes: int = 0
    refreshes: int = 0
    rfm_commands: int = 0
    migrations: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


class Bank:
    """One DRAM bank with an open-row state machine and timing bookkeeping."""

    def __init__(self, timing: TimingCycles, rows: int,
                 bank_group: int = 0, bank: int = 0) -> None:
        self.timing = timing
        self.rows = rows
        self.bank_group = bank_group
        self.bank = bank

        self.state = BankState.CLOSED
        self.open_row: Optional[int] = None

        # Timing floors: the earliest cycle at which each command class may
        # next be issued.  They never sit below ``_blocked_until`` (a block
        # raises all three, and every later update is relative to an issue
        # cycle past the block), so the floors alone carry the bank's
        # timing rules; ``_blocked_until`` is kept for introspection.
        self._next_act = 0
        self._next_pre = 0
        self._next_rdwr = 0
        self._blocked_until = 0

        # Cycle of the last ACT, used for tRAS accounting.
        self._last_act_cycle = -(10 ** 9)

        self.stats = BankStats()
        # Activation count per row since the last time the caller reset it;
        # used by mitigation mechanisms that want per-bank introspection.
        self.row_activation_counts: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # Ready checks
    # ------------------------------------------------------------------ #
    def timing_floor(self, kind: CommandType) -> int:
        """Earliest cycle this bank's timing state lets ``kind`` issue."""

        if kind is CommandType.RD or kind is CommandType.WR:
            return self._next_rdwr
        if kind is CommandType.PRE or kind is CommandType.PREA:
            return self._next_pre
        if kind is CommandType.ACT or kind.is_maintenance:
            # Maintenance commands need a precharged bank, like an ACT.
            return self._next_act
        raise ValueError(f"unknown command type {kind}")

    def state_allows(self, kind: CommandType) -> bool:
        """Whether the row-buffer state admits ``kind`` at all.

        Column commands need an open row; precharges are always allowed;
        ACT and maintenance commands need a precharged bank.
        """

        if kind.is_column_command:
            return self.open_row is not None
        if kind is CommandType.PRE or kind is CommandType.PREA:
            return True
        return self.open_row is None

    def ready(self, kind: CommandType, cycle: int) -> bool:
        """Return ``True`` if ``kind`` respects this bank's timing at ``cycle``."""

        return self.timing_floor(kind) <= cycle and self.state_allows(kind)

    # ------------------------------------------------------------------ #
    # Issue
    # ------------------------------------------------------------------ #
    def issue(self, command: Command, cycle: int) -> int:
        """Apply ``command`` to the bank at ``cycle``.

        Returns the cycle at which the command's effect completes (for RD/WR
        this is when the data burst finishes; for maintenance commands it is
        when the bank becomes usable again).  Raises ``RuntimeError`` if the
        command violates bank timing — the controller is expected to check
        :meth:`ready` first.
        """

        if not self.ready(command.kind, cycle):
            raise RuntimeError(
                f"bank timing violation: {command.kind} at cycle {cycle} "
                f"(state={self.state}, blocked_until={self._blocked_until})"
            )
        return self._HANDLERS[command.kind](self, command, cycle)

    # -- row commands --------------------------------------------------- #
    def _issue_act(self, command: Command, cycle: int) -> int:
        if command.row is None:
            raise ValueError("ACT requires a target row")
        t = self.timing
        self.state = BankState.OPEN
        self.open_row = command.row
        self._last_act_cycle = cycle
        self._next_rdwr = cycle + t.trcd
        self._next_pre = cycle + t.tras
        self._next_act = cycle + t.trc
        self.stats.activations += 1
        self.stats.row_misses += 1
        self.row_activation_counts[command.row] = (
            self.row_activation_counts.get(command.row, 0) + 1
        )
        return cycle + t.trcd

    def _issue_pre(self, command: Command, cycle: int) -> int:
        t = self.timing
        self.state = BankState.CLOSED
        self.open_row = None
        self.stats.precharges += 1
        self._next_act = max(self._next_act, cycle + t.trp)
        return cycle + t.trp

    # -- column commands ------------------------------------------------ #
    def _issue_read(self, command: Command, cycle: int) -> int:
        t = self.timing
        self.stats.reads += 1
        self.stats.row_hits += 1
        self._next_rdwr = cycle + t.tccd_l
        # A read constrains the earliest precharge via tRTP.
        self._next_pre = max(self._next_pre, cycle + t.trtp)
        return cycle + t.trcd + t.tbl

    def _issue_write(self, command: Command, cycle: int) -> int:
        t = self.timing
        self.stats.writes += 1
        self.stats.row_hits += 1
        self._next_rdwr = cycle + t.tccd_l
        self._next_pre = max(self._next_pre, cycle + t.twr)
        return cycle + t.trcd + t.tbl

    # -- maintenance ---------------------------------------------------- #
    def _block(self, cycle: int, duration: int) -> int:
        self._blocked_until = max(self._blocked_until, cycle + duration)
        self._next_act = max(self._next_act, self._blocked_until)
        self._next_pre = max(self._next_pre, self._blocked_until)
        self._next_rdwr = max(self._next_rdwr, self._blocked_until)
        return self._blocked_until

    def _issue_refresh(self, command: Command, cycle: int) -> int:
        self.stats.refreshes += 1
        return self._block(cycle, self.timing.trfc)

    def _issue_victim_refresh(self, command: Command, cycle: int) -> int:
        self.stats.preventive_refreshes += 1
        return self._block(cycle, self.timing.tvrr)

    def _issue_rfm(self, command: Command, cycle: int) -> int:
        self.stats.rfm_commands += 1
        return self._block(cycle, self.timing.trfm)

    def _issue_migration(self, command: Command, cycle: int) -> int:
        self.stats.migrations += 1
        # A migration copies a row: model it as an ACT + column traffic + PRE
        # on both source and destination, i.e. roughly two row cycles.
        return self._block(cycle, 2 * self.timing.trc + self.timing.tvrr)

    # Per-kind dispatch, resolved once at class-definition time (a literal
    # dict built per issue() call showed up in the profile).
    _HANDLERS = {
        CommandType.ACT: _issue_act,
        CommandType.PRE: _issue_pre,
        CommandType.PREA: _issue_pre,
        CommandType.RD: _issue_read,
        CommandType.WR: _issue_write,
        CommandType.REF: _issue_refresh,
        CommandType.VRR: _issue_victim_refresh,
        CommandType.RFM: _issue_rfm,
        CommandType.MIG: _issue_migration,
    }

    # ------------------------------------------------------------------ #
    # Introspection helpers
    # ------------------------------------------------------------------ #
    def is_open(self, row: Optional[int] = None) -> bool:
        # ``open_row`` is ``None`` exactly while the bank is closed (an ACT
        # always names its row), which the hot paths read directly.
        if self.state is not BankState.OPEN:
            return False
        return True if row is None else self.open_row == row

    def record_conflict(self) -> None:
        """Called by the controller when an access needs PRE+ACT (conflict)."""

        self.stats.row_conflicts += 1

    def reset_row_activation_counts(self) -> None:
        self.row_activation_counts.clear()

    def busy_until(self) -> int:
        return self._blocked_until

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Bank(bg={self.bank_group}, ba={self.bank}, state={self.state.value}, "
            f"open_row={self.open_row})"
        )
