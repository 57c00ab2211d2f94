"""Rank and channel composition of DRAM banks.

:class:`Rank` owns the banks of one rank and enforces rank-level constraints:
activate-to-activate spacing (tRRD_S / tRRD_L), the rolling four-activate
window (tFAW), and all-bank blocking during REF.  :class:`Channel` owns the
ranks behind one memory channel and models data-bus occupancy so that two
column commands cannot overlap their bursts.

Readiness has one implementation, over timing *floors* the state already
holds: a command may issue at ``cycle`` exactly when the row-buffer state
admits it and ``cycle`` has reached its floor.

* RD/WR: the bank's ``_next_rdwr``, and the channel's data-bus floor;
* PRE: the bank's ``_next_pre``;
* ACT: the bank's ``_next_act``, and the rank's ACT floor for the bank's
  group (:attr:`Rank.act_floors`: REF block, tRRD_S/tRRD_L, tFAW);
* VRR/RFM/MIG: the bank's ``_next_act``; REF: the latest ``_next_act`` of
  the rank's banks; PREA: the latest ``_next_pre`` of its open banks.

A REF blocks every bank of its rank until the REF ends, raising each
bank's floors there, so the bank floors already cover the rank's REF
block.  :meth:`Channel.timing_floor` composes the rules; ``kind_ready`` and
``kind_earliest_ready_cycle`` are built on it, and the memory
controller's request scan reads the same floors directly.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Set

from repro.dram.bank import Bank
from repro.dram.commands import Command, CommandType
from repro.dram.config import DeviceConfig, TimingCycles


class Rank:
    """One DRAM rank: a grid of banks plus rank-wide timing state."""

    def __init__(self, config: DeviceConfig, rank_index: int = 0) -> None:
        self.config = config
        self.rank_index = rank_index
        self.timing: TimingCycles = config.timing_cycles()
        self.banks: List[List[Bank]] = [
            [
                Bank(self.timing, config.rows_per_bank, bank_group=bg, bank=ba)
                for ba in range(config.banks_per_group)
            ]
            for bg in range(config.bank_groups)
        ]
        # Recent activation timestamps for the tFAW window.
        self._act_history: Deque[int] = deque(maxlen=4)
        self._last_act_cycle: int = -(10 ** 9)
        self._last_act_bank_group: Optional[int] = None
        self._blocked_until: int = 0  # REF blocks the whole rank
        #: Earliest cycle the rank-wide limits (REF block, tRRD_S/tRRD_L,
        #: tFAW) admit an ACT, per bank group; kept by every ACT and REF.
        self.act_floors: List[int] = [0] * config.bank_groups

        self.total_activations = 0
        self.total_refreshes = 0
        self.total_rfm = 0
        self.total_preventive_refreshes = 0

    # ------------------------------------------------------------------ #
    def bank(self, bank_group: int, bank: int) -> Bank:
        return self.banks[bank_group][bank]

    def iter_banks(self) -> Iterable[Bank]:
        for group in self.banks:
            yield from group

    # ------------------------------------------------------------------ #
    def _update_act_floors(self) -> None:
        t = self.timing
        base = self._blocked_until
        history = self._act_history
        if len(history) == history.maxlen:
            base = max(base, history[0] + t.tfaw)
        same_group = max(base, self._last_act_cycle + t.trrd_l)
        other_group = max(base, self._last_act_cycle + t.trrd_s)
        last_group = self._last_act_bank_group
        self.act_floors = [
            same_group if group == last_group else other_group
            for group in range(len(self.banks))
        ]

    def timing_floor(self, kind: CommandType, bank_group: int,
                     bank: int) -> int:
        """Earliest cycle the rank+bank timing state lets ``kind`` issue."""

        if kind is CommandType.ACT:
            floor = self.banks[bank_group][bank]._next_act
            rank_floor = self.act_floors[bank_group]
            return rank_floor if rank_floor > floor else floor
        if kind is CommandType.REF:
            return max(b._next_act for b in self.iter_banks())
        if kind is CommandType.PREA:
            return max([self._blocked_until] + [
                b._next_pre for b in self.iter_banks()
                if b.open_row is not None
            ])
        return self.banks[bank_group][bank].timing_floor(kind)

    def state_allows(self, kind: CommandType, bank_group: int,
                     bank: int) -> bool:
        """Whether the banks' row-buffer state admits ``kind``."""

        if kind is CommandType.REF:
            # All banks must be precharged.
            return all(b.open_row is None for b in self.iter_banks())
        if kind is CommandType.PREA:
            return True
        return self.banks[bank_group][bank].state_allows(kind)

    def ready(self, command: Command, cycle: int) -> bool:
        """Check rank-level and bank-level constraints for ``command``."""

        return self.kind_ready(command.kind, command.bank_group, command.bank,
                               cycle)

    def kind_ready(self, kind: CommandType, bank_group: int, bank: int,
                   cycle: int) -> bool:
        """Whether ``kind`` may issue at ``cycle`` (no Command needed)."""

        return (self.timing_floor(kind, bank_group, bank) <= cycle
                and self.state_allows(kind, bank_group, bank))

    def issue(self, command: Command, cycle: int) -> int:
        """Issue ``command`` and return its completion cycle."""

        if command.kind is CommandType.REF:
            return self._issue_refresh(command, cycle)
        if command.kind is CommandType.PREA:
            return self._issue_precharge_all(command, cycle)

        bank = self.bank(command.bank_group, command.bank)
        done = bank.issue(command, cycle)

        if command.kind is CommandType.ACT:
            self.total_activations += 1
            self._act_history.append(cycle)
            self._last_act_cycle = cycle
            self._last_act_bank_group = command.bank_group
            self._update_act_floors()
        elif command.kind is CommandType.VRR:
            self.total_preventive_refreshes += 1
        elif command.kind is CommandType.RFM:
            self.total_rfm += 1
        return done

    def _issue_refresh(self, command: Command, cycle: int) -> int:
        done = cycle
        for bank in self.iter_banks():
            done = max(done, bank.issue(
                Command(CommandType.REF, channel=command.channel,
                        rank=self.rank_index, bank_group=bank.bank_group,
                        bank=bank.bank),
                cycle,
            ))
        self._blocked_until = max(self._blocked_until, done)
        self._update_act_floors()
        self.total_refreshes += 1
        return done

    def _issue_precharge_all(self, command: Command, cycle: int) -> int:
        done = cycle
        for bank in self.iter_banks():
            if bank.is_open():
                done = max(done, bank.issue(
                    Command(CommandType.PRE, channel=command.channel,
                            rank=self.rank_index, bank_group=bank.bank_group,
                            bank=bank.bank),
                    cycle,
                ))
        return done

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, int]:
        agg: Dict[str, int] = {}
        for bank in self.iter_banks():
            for key, value in bank.stats.as_dict().items():
                agg[key] = agg.get(key, 0) + value
        agg["rank_refreshes"] = self.total_refreshes
        return agg


class Channel:
    """One memory channel: a set of ranks sharing command and data buses."""

    def __init__(self, config: DeviceConfig, channel_index: int = 0) -> None:
        self.config = config
        self.channel_index = channel_index
        self.timing = config.timing_cycles()
        self.ranks: List[Rank] = [
            Rank(config, rank_index=r) for r in range(config.ranks)
        ]
        self._data_bus_free_at = 0
        self.commands_issued: Dict[CommandType, int] = {
            kind: 0 for kind in CommandType
        }
        # Monotonic issue counter: any issued command may change open rows,
        # timing floors, or scheduler cap state, so the controller's
        # failed-scan memo keys on this serial to prove nothing changed.
        self.issue_serial = 0
        #: Sets that collect the ``bank_key`` of every bank whose open row
        #: a command may change (ACT, PRE, PREA): the request queues' dirty
        #: banks, subscribed by the scheduler that caches their offers.
        self.row_watchers: List[Set[tuple]] = []

    # ------------------------------------------------------------------ #
    def rank(self, index: int) -> Rank:
        return self.ranks[index]

    def bank(self, rank: int, bank_group: int, bank: int) -> Bank:
        return self.ranks[rank].bank(bank_group, bank)

    def iter_banks(self) -> Iterable[Bank]:
        for rank in self.ranks:
            yield from rank.iter_banks()

    # ------------------------------------------------------------------ #
    def ready(self, command: Command, cycle: int) -> bool:
        return self.kind_ready(command.kind, command.rank, command.bank_group,
                               command.bank, cycle)

    # ------------------------------------------------------------------ #
    # Command-free variants: probes from a command's coordinates, so a
    # failing probe builds no Command object.
    # ------------------------------------------------------------------ #
    def timing_floor(self, kind: CommandType, rank_index: int,
                     bank_group: int, bank: int) -> int:
        """Earliest cycle the channel's timing state lets ``kind`` issue.

        The rank+bank floor, plus data-bus occupancy for column commands.
        """

        floor = self.ranks[rank_index].timing_floor(kind, bank_group, bank)
        if kind.is_column_command and self._data_bus_free_at > floor:
            return self._data_bus_free_at
        return floor

    def kind_ready(self, kind: CommandType, rank_index: int, bank_group: int,
                   bank: int, cycle: int) -> bool:
        """Equivalent of :meth:`ready` from a command's coordinates."""

        return (self.timing_floor(kind, rank_index, bank_group, bank) <= cycle
                and self.ranks[rank_index].state_allows(kind, bank_group,
                                                        bank))

    def kind_earliest_ready_cycle(self, kind: CommandType, rank_index: int,
                                  bank_group: int, bank: int,
                                  cycle: int) -> int:
        """Earliest cycle, not before ``cycle``, meeting the timing floor.

        Purely a timing estimate — state conditions (open rows) are the
        caller's responsibility.
        """

        floor = self.timing_floor(kind, rank_index, bank_group, bank)
        return floor if floor > cycle else cycle

    def issue(self, command: Command, cycle: int) -> int:
        if not self.ready(command, cycle):
            raise RuntimeError(
                f"channel not ready for {command.kind} at cycle {cycle}"
            )
        done = self.ranks[command.rank].issue(command, cycle)
        kind = command.kind
        if kind.is_column_command:
            self._data_bus_free_at = cycle + self.timing.tbl
        elif kind.is_row_command and self.row_watchers:
            self._mark_row_change(command)
        self.commands_issued[kind] += 1
        self.issue_serial += 1
        return done

    def _mark_row_change(self, command: Command) -> None:
        """Mark the banks whose open row ``command`` may have changed: its
        bank for an ACT or PRE, every bank of its rank for a PREA."""

        if command.kind is CommandType.PREA:
            banks = [(bank.bank_group, bank.bank)
                     for bank in self.ranks[command.rank].iter_banks()]
        else:
            banks = [(command.bank_group, command.bank)]
        for bank_group, bank in banks:
            key = (self.channel_index, command.rank, bank_group, bank)
            for dirty in self.row_watchers:
                dirty.add(key)

    # ------------------------------------------------------------------ #
    def total_activations(self) -> int:
        return sum(rank.total_activations for rank in self.ranks)

    def stats(self) -> Dict[str, int]:
        agg: Dict[str, int] = {}
        for rank in self.ranks:
            for key, value in rank.stats().items():
                agg[key] = agg.get(key, 0) + value
        agg["commands"] = {k.value: v for k, v in self.commands_issued.items()}
        return agg
