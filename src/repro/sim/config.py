"""System and simulation configuration.

:class:`SystemConfig` collects every knob of the simulated machine (paper
Table 1), the attached mitigation mechanism, and the optional BreakHammer
instance (paper Table 2).  :class:`SimulationConfig` bounds a run.

Scaling note
------------
The paper simulates 100 M instructions per core with a 64 ms throttling
window.  A pure-Python cycle-level model cannot afford that per data point,
so the default *fast profile* shortens runs to tens of thousands of
controller cycles and scales BreakHammer's windowed parameters with them:

* ``TH_window`` becomes a fraction of the simulated horizon, and
* ``TH_threat`` is reduced proportionally (a thread simply cannot accumulate
  a score of 32 preventive actions in a millisecond-scale window).

Both scalings preserve the *structure* of the mechanism — scores accumulate
per window, suspects must both exceed an absolute floor and be outliers —
which is what the reproduced trends depend on.  The paper-exact values are
available through :meth:`SystemConfig.paper_exact`.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field, replace
from typing import Dict

from repro.controller.scheduler import CAP, FrFcfsCapScheduler
from repro.core.breakhammer import BreakHammerConfig
from repro.cpu.cache import CacheConfig
from repro.cpu.core_model import CoreConfig
from repro.dram.address import MappingScheme
from repro.dram.config import DeviceConfig


#: Valid values of :attr:`SimulationConfig.engine`.
SIMULATION_ENGINES = ("cycle", "fast")

#: Environment variable naming the default simulation engine.  Resolution
#: order (explicit spec/config field > this variable > ``"fast"``) is
#: implemented once, in :func:`repro.api.session.resolve_execution`.
ENGINE_ENV = "REPRO_ENGINE"


def config_fingerprint(*configs) -> str:
    """A short stable digest over one or more (frozen) config dataclasses.

    The digest covers every field, recursively (nested dataclasses are
    flattened by :func:`dataclasses.asdict`; enums and other values fall
    back to ``repr``), so *any* configuration difference — device geometry,
    timing compression, mitigation kwargs — yields a different
    fingerprint.  The on-disk run cache uses this to key cached
    :class:`repro.sim.stats.RunStatistics` so two distinct configurations
    can never alias.
    """

    parts = []
    for config in configs:
        if dataclasses.is_dataclass(config) and not isinstance(config, type):
            parts.append(repr(dataclasses.asdict(config)))
        else:
            parts.append(repr(config))
    payload = "\x1e".join(parts).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:20]


@dataclass(frozen=True)
class SimulationConfig:
    """The length of one simulation run and the engine that drives it.

    Every run lasts exactly ``max_cycles`` cycles.  ``engine`` selects the
    simulation engine:

    * ``"cycle"`` (default) — tick every cycle, the reference behaviour;
    * ``"fast"``  — event-driven fast-forward: the simulator jumps straight
      to the next cycle at which any component can act (a DRAM command
      becoming timing-ready, an in-flight request completing, a refresh
      deadline, a throttling-window boundary, a runnable core).  Both
      engines produce identical :class:`repro.sim.stats.RunStatistics`;
      the fast engine simply skips the cycles in which nothing can happen.
    """

    max_cycles: int = 60_000
    engine: str = "cycle"

    def __post_init__(self) -> None:
        if self.max_cycles <= 0:
            raise ValueError("max_cycles must be positive")
        if self.engine not in SIMULATION_ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of "
                f"{SIMULATION_ENGINES}"
            )


@dataclass(frozen=True)
class SystemConfig:
    """The simulated machine (paper Table 1 + Table 2)."""

    device: DeviceConfig = field(default_factory=DeviceConfig.ddr5_4800)
    num_cores: int = 4
    core: CoreConfig = field(default_factory=CoreConfig)
    llc: CacheConfig = field(default_factory=CacheConfig)
    mshr_entries: int = 64
    read_queue_size: int = 64
    write_queue_size: int = 64
    mapping: MappingScheme = MappingScheme.MOP

    # RowHammer mitigation
    mitigation: str = "none"
    nrh: int = 1024
    mitigation_kwargs: Dict[str, object] = field(default_factory=dict)

    # BreakHammer
    breakhammer_enabled: bool = False
    breakhammer: BreakHammerConfig = field(default_factory=BreakHammerConfig)

    def __post_init__(self) -> None:
        if self.num_cores <= 0:
            raise ValueError("need at least one core")
        if self.mshr_entries <= 0:
            raise ValueError("need at least one MSHR")

    # ------------------------------------------------------------------ #
    def with_(self, **overrides) -> "SystemConfig":
        """Return a copy with fields replaced (dataclasses.replace wrapper)."""

        return replace(self, **overrides)

    # ------------------------------------------------------------------ #
    @classmethod
    def paper_exact(cls, mitigation: str = "none", nrh: int = 1024,
                    breakhammer_enabled: bool = False) -> "SystemConfig":
        """The paper's exact configuration (Tables 1 and 2), unscaled."""

        return cls(
            mitigation=mitigation,
            nrh=nrh,
            breakhammer_enabled=breakhammer_enabled,
            breakhammer=BreakHammerConfig(
                window_ms=64.0,
                threat_threshold=32.0,
                outlier_threshold=0.65,
                p_oldsuspect=1,
                p_newsuspect=10,
            ),
        )

    @classmethod
    def fast_profile(cls, mitigation: str = "none", nrh: int = 1024,
                     breakhammer_enabled: bool = False,
                     sim_cycles: int = 30_000,
                     threat_threshold: float = 4.0,
                     outlier_threshold: float = 0.65,
                     time_compression: float = 4.0) -> "SystemConfig":
        """A configuration scaled for short Python simulations.

        Three scalings keep short runs representative of the paper's much
        longer ones:

        * DRAM service times are compressed by ``time_compression`` so a run
          of tens of thousands of cycles contains enough row activations to
          exercise the mitigation mechanisms' trigger algorithms;
        * the throttling window is set to a quarter of the simulated horizon
          so that several windows elapse per run;
        * ``TH_threat`` is reduced to match the smaller number of preventive
          actions a window can contain.

        A smaller LLC keeps tag-store state light and lets synthetic traces
        exercise DRAM without needing gigantic footprints.
        """

        device = DeviceConfig.ddr5_4800(rows_per_bank=4096)
        if time_compression != 1.0:
            device = device.time_compressed(time_compression)
        tck = device.timings.tck
        window_ms = sim_cycles / 4 * tck * 1e-6
        return cls(
            device=device,
            llc=CacheConfig(size_bytes=512 * 1024, associativity=8),
            mitigation=mitigation,
            nrh=nrh,
            breakhammer_enabled=breakhammer_enabled,
            breakhammer=BreakHammerConfig(
                window_ms=window_ms,
                threat_threshold=threat_threshold,
                outlier_threshold=outlier_threshold,
                p_oldsuspect=1,
                p_newsuspect=10,
            ),
        )

    # ------------------------------------------------------------------ #
    def describe(self) -> Dict[str, object]:
        """Dictionary summary used by the Table 1 / Table 2 benchmarks."""

        return {
            "processor": {
                "cores": self.num_cores,
                "issue_width": self.core.issue_width,
                "instruction_window": self.core.instruction_window,
                "frequency_ghz": self.core.frequency_ghz,
            },
            "llc": {
                "size_bytes": self.llc.size_bytes,
                "associativity": self.llc.associativity,
                "line_bytes": self.llc.line_bytes,
            },
            "memory_controller": {
                "read_queue": self.read_queue_size,
                "write_queue": self.write_queue_size,
                "scheduler": FrFcfsCapScheduler.name,
                "cap": CAP,
                "mapping": self.mapping.value,
                "mshr_entries": self.mshr_entries,
            },
            "dram": self.device.describe(),
            "mitigation": {"name": self.mitigation, "nrh": self.nrh},
            "breakhammer": (
                self.breakhammer.as_dict() if self.breakhammer_enabled else None
            ),
        }
