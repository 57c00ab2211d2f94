"""repro — a from-scratch Python reproduction of BreakHammer (MICRO 2024).

BreakHammer reduces the performance and energy overheads of RowHammer
mitigation mechanisms by observing which hardware threads trigger
RowHammer-preventive actions and throttling the memory bandwidth usage
(LLC MSHR quota) of the suspects.

Top-level convenience imports cover the most common entry points::

    from repro import (
        BreakHammer, BreakHammerConfig,       # the core mechanism
        SystemConfig, SimulationConfig,       # system description
        Simulator,                            # run a simulation
        make_mix,                             # build workload mixes
        ExperimentSpec, Session,              # declarative sweeps (repro.api)
    )

See ROADMAP.md ("Running sweeps") for the experiment surface, which lives
in :mod:`repro.api` (``python -m repro.api run <spec.toml>``).
"""

from repro.api import ExperimentSpec, RunPoint, Session
from repro.core.breakhammer import BreakHammer, BreakHammerConfig
from repro.core.security import SecurityAnalysis, max_attacker_score_ratio
from repro.dram.config import DeviceConfig
from repro.mitigations.registry import (
    NRH_SWEEP,
    PAIRED_MECHANISMS,
    available_mechanisms,
    create_mechanism,
)
from repro.sim.config import SimulationConfig, SystemConfig
from repro.sim.simulator import SimulationResult, Simulator, run_simulation
from repro.workloads.mixes import WorkloadMix, make_mix

__version__ = "1.0.0"

__all__ = [
    "BreakHammer",
    "BreakHammerConfig",
    "DeviceConfig",
    "ExperimentSpec",
    "NRH_SWEEP",
    "RunPoint",
    "Session",
    "PAIRED_MECHANISMS",
    "SecurityAnalysis",
    "SimulationConfig",
    "SimulationResult",
    "Simulator",
    "SystemConfig",
    "WorkloadMix",
    "available_mechanisms",
    "create_mechanism",
    "make_mix",
    "max_attacker_score_ratio",
    "run_simulation",
    "__version__",
]
