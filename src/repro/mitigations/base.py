"""Common interface for RowHammer mitigation mechanisms.

Every mechanism evaluated by the paper fits the same shape: a *trigger
algorithm* observes row activations and occasionally demands one or more
*RowHammer-preventive actions* — victim-row refreshes, row migrations, or
RFM windows — which the memory controller must carry out before (or
alongside) ordinary traffic.  :class:`MitigationMechanism` captures that
shape; each concrete mechanism lives in its own module.

The controller reports two kinds of events to registered
:class:`ActionObserver` objects (BreakHammer is such an observer):

* every row activation, tagged with the responsible hardware thread, and
* every completed preventive action, tagged with the mechanism and a weight.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol

from repro.dram.address import DramAddress
from repro.dram.commands import Command, CommandType
from repro.dram.config import DeviceConfig


class PreventiveActionKind(enum.Enum):
    """The categories of RowHammer-preventive actions the paper discusses."""

    VICTIM_REFRESH = "victim_refresh"  # refresh the neighbours of an aggressor
    ROW_MIGRATION = "row_migration"  # AQUA-style quarantine migration
    RFM = "rfm"  # DDR5 refresh-management window
    BACKOFF = "backoff"  # PRAC alert_n back-off servicing


@dataclass
class PreventiveAction:
    """A unit of preventive work the controller must perform.

    ``commands`` are issued by the controller with priority over regular
    requests.  ``weight`` is the score mass the action carries when
    BreakHammer attributes it to threads (normally 1.0 per action).
    """

    kind: PreventiveActionKind
    commands: List[Command]
    mechanism: str
    aggressor_row: Optional[tuple] = None
    weight: float = 1.0
    created_cycle: int = 0
    completed_cycle: Optional[int] = None
    metadata: dict = field(default_factory=dict)


class ActionObserver(Protocol):
    """Anything that wants to watch activations and preventive actions."""

    def on_activation(self, coordinate: DramAddress, thread_id: Optional[int],
                      cycle: int) -> None:
        ...

    def on_preventive_action(self, action: PreventiveAction, cycle: int) -> None:
        ...


class MitigationMechanism(abc.ABC):
    """Base class for all RowHammer mitigation mechanisms.

    Subclasses implement :meth:`on_activation` (the trigger algorithm) and
    may override :meth:`tick` (for time-driven mechanisms such as REGA),
    :meth:`on_refresh_window` (for mechanisms that reset state every tREFW,
    such as Graphene and TWiCe), and :meth:`activation_floor` (for
    access-blocking mechanisms such as BlockHammer).
    """

    #: Human-readable mechanism name, overridden by subclasses.
    name: str = "none"
    #: Whether the mechanism's preventive state lives on the DRAM die
    #: (RFM, PRAC, REGA) rather than in the memory controller.
    on_dram_die: bool = False

    def __init__(self, config: DeviceConfig, nrh: int) -> None:
        if nrh <= 0:
            raise ValueError("RowHammer threshold must be positive")
        self.config = config
        self.nrh = nrh
        self.actions_triggered = 0
        self.actions_by_kind: Dict[PreventiveActionKind, int] = {
            kind: 0 for kind in PreventiveActionKind
        }
        # Activation attempts :meth:`activation_floor` vetoed, one per
        # attempt per cycle; counted by the memory controller.
        self.delayed_activations = 0

    # ------------------------------------------------------------------ #
    # Trigger algorithm hooks
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def on_activation(self, coordinate: DramAddress,
                      thread_id: Optional[int],
                      cycle: int) -> List[PreventiveAction]:
        """Observe one row activation; return any preventive actions due."""

    def tick(self, cycle: int) -> List[PreventiveAction]:
        """Called once per cycle for time-driven mechanisms (default: none)."""

        return []

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Next cycle at which :meth:`tick` has time-driven work, or ``None``.

        The fast-forward simulation engine uses this to know it must not
        jump past a mechanism's internal deadline (e.g. a counter-window
        switch).  Mechanisms without time-driven state return ``None``.
        """

        return None

    def on_refresh_window(self, cycle: int) -> None:
        """Called once per refresh window (tREFW); resets windowed state."""

    def activation_floor(self, coordinate: DramAddress) -> int:
        """Earliest cycle the mechanism lets the row be activated.

        An attempt before that cycle is vetoed (BlockHammer-style).  The
        fast-forward engines may skip every cycle up to the floor, so it
        may change before then only in :meth:`on_activation`,
        :meth:`on_refresh_window`, or a :meth:`tick` at a cycle
        :meth:`next_event_cycle` reported.  The default never delays an
        activation.
        """

        return 0

    # ------------------------------------------------------------------ #
    # Helpers for subclasses
    # ------------------------------------------------------------------ #
    def _register(self, action: PreventiveAction) -> PreventiveAction:
        self.actions_triggered += 1
        self.actions_by_kind[action.kind] += 1
        return action

    def victim_refresh_action(self, coordinate: DramAddress, cycle: int,
                              blast_radius: int = 1,
                              kind: PreventiveActionKind = PreventiveActionKind.VICTIM_REFRESH,
                              weight: float = 1.0) -> PreventiveAction:
        """Build a preventive-refresh action for the neighbours of a row.

        ``blast_radius`` is the number of victim rows refreshed on each side
        of the aggressor.
        """

        commands = []
        for offset in range(1, blast_radius + 1):
            for direction in (-1, 1):
                victim = coordinate.row + direction * offset
                if 0 <= victim < self.config.rows_per_bank:
                    commands.append(
                        Command(
                            CommandType.VRR,
                            channel=coordinate.channel,
                            rank=coordinate.rank,
                            bank_group=coordinate.bank_group,
                            bank=coordinate.bank,
                            row=victim,
                        )
                    )
        action = PreventiveAction(
            kind=kind,
            commands=commands,
            mechanism=self.name,
            aggressor_row=coordinate.row_key,
            weight=weight,
            created_cycle=cycle,
        )
        return self._register(action)

    def rfm_action(self, coordinate: DramAddress, cycle: int,
                   weight: float = 1.0,
                   kind: PreventiveActionKind = PreventiveActionKind.RFM
                   ) -> PreventiveAction:
        """Build an RFM action targeting the bank of ``coordinate``."""

        command = Command(
            CommandType.RFM,
            channel=coordinate.channel,
            rank=coordinate.rank,
            bank_group=coordinate.bank_group,
            bank=coordinate.bank,
        )
        action = PreventiveAction(
            kind=kind,
            commands=[command],
            mechanism=self.name,
            aggressor_row=None,
            weight=weight,
            created_cycle=cycle,
        )
        return self._register(action)

    def migration_action(self, coordinate: DramAddress, cycle: int,
                         weight: float = 1.0) -> PreventiveAction:
        """Build a row-migration action (AQUA quarantine)."""

        command = Command(
            CommandType.MIG,
            channel=coordinate.channel,
            rank=coordinate.rank,
            bank_group=coordinate.bank_group,
            bank=coordinate.bank,
            row=coordinate.row,
        )
        action = PreventiveAction(
            kind=PreventiveActionKind.ROW_MIGRATION,
            commands=[command],
            mechanism=self.name,
            aggressor_row=coordinate.row_key,
            weight=weight,
            created_cycle=cycle,
        )
        return self._register(action)

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        """Mechanism statistics for reports and tests."""

        return {
            "mechanism": self.name,
            "nrh": self.nrh,
            "actions_triggered": self.actions_triggered,
            "actions_by_kind": {
                kind.value: count for kind, count in self.actions_by_kind.items()
            },
        }


class NoMitigation(MitigationMechanism):
    """Baseline: no RowHammer mitigation (the paper's "No Defense")."""

    name = "none"

    def __init__(self, config: DeviceConfig, nrh: int = 10 ** 9) -> None:
        super().__init__(config, nrh)

    def on_activation(self, coordinate: DramAddress,
                      thread_id: Optional[int],
                      cycle: int) -> List[PreventiveAction]:
        return []
