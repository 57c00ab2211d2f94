"""Per-command DRAM energy model.

The paper reports DRAM energy normalised to a no-mitigation baseline
(Fig. 12).  The dominant effect is the extra ACT/PRE/VRR/RFM/migration
traffic that mitigation mechanisms generate, so an energy model that charges
a fixed energy per command plus a background/static term captures the trend.

Energy values are loosely derived from DDR5 IDD figures; they are expressed
in nanojoules per command and milliwatts of background power so that reports
come out in millijoules for typical simulation lengths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.dram.commands import CommandType
from repro.dram.config import DeviceConfig


@dataclass(frozen=True)
class EnergyParameters:
    """Energy cost per DRAM command, in nanojoules, plus background power."""

    act_pre_nj: float = 2.0  # one ACT/PRE pair
    read_nj: float = 1.2  # one RD burst
    write_nj: float = 1.3  # one WR burst
    refresh_nj: float = 30.0  # one all-bank REF (per rank)
    vrr_nj: float = 4.0  # one victim-row (preventive) refresh
    rfm_nj: float = 20.0  # one RFM window
    migration_nj: float = 9.0  # one AQUA row migration
    background_mw: float = 80.0  # static + standby power per rank


@dataclass
class EnergyReport:
    """Energy broken down by source, in millijoules."""

    activation_mj: float = 0.0
    read_mj: float = 0.0
    write_mj: float = 0.0
    refresh_mj: float = 0.0
    preventive_mj: float = 0.0
    rfm_mj: float = 0.0
    migration_mj: float = 0.0
    background_mj: float = 0.0

    @property
    def total_mj(self) -> float:
        return (
            self.activation_mj
            + self.read_mj
            + self.write_mj
            + self.refresh_mj
            + self.preventive_mj
            + self.rfm_mj
            + self.migration_mj
            + self.background_mj
        )

    @property
    def maintenance_mj(self) -> float:
        """Energy attributable to RowHammer-preventive work."""

        return self.preventive_mj + self.rfm_mj + self.migration_mj

    def as_dict(self) -> Dict[str, float]:
        data = dict(self.__dict__)
        data["total_mj"] = self.total_mj
        data["maintenance_mj"] = self.maintenance_mj
        return data


class EnergyModel:
    """Accumulates DRAM energy from command counts and elapsed time."""

    def __init__(self, config: DeviceConfig,
                 parameters: EnergyParameters | None = None) -> None:
        self.config = config
        self.parameters = parameters or EnergyParameters()
        self.command_counts: Dict[CommandType, int] = {
            kind: 0 for kind in CommandType
        }

    def record(self, kind: CommandType, count: int = 1) -> None:
        """Record ``count`` commands of type ``kind``."""

        self.command_counts[kind] = self.command_counts.get(kind, 0) + count

    def record_counts(self, counts: Dict[CommandType, int]) -> None:
        for kind, count in counts.items():
            self.record(kind, count)

    def report(self, elapsed_cycles: int) -> EnergyReport:
        """Compute the energy report for a run of ``elapsed_cycles`` cycles."""

        p = self.parameters
        nj_to_mj = 1e-6
        counts = self.command_counts
        elapsed_ns = elapsed_cycles * self.config.timings.tck
        background_mj = (
            p.background_mw * 1e-3  # W
            * elapsed_ns * 1e-9  # s
            * self.config.ranks
            * 1e3  # J -> mJ
        )
        return EnergyReport(
            activation_mj=counts[CommandType.ACT] * p.act_pre_nj * nj_to_mj,
            read_mj=counts[CommandType.RD] * p.read_nj * nj_to_mj,
            write_mj=counts[CommandType.WR] * p.write_nj * nj_to_mj,
            refresh_mj=counts[CommandType.REF] * p.refresh_nj * nj_to_mj,
            preventive_mj=counts[CommandType.VRR] * p.vrr_nj * nj_to_mj,
            rfm_mj=counts[CommandType.RFM] * p.rfm_nj * nj_to_mj,
            migration_mj=counts[CommandType.MIG] * p.migration_nj * nj_to_mj,
            background_mj=background_mj,
        )

    def reset(self) -> None:
        for kind in self.command_counts:
            self.command_counts[kind] = 0
