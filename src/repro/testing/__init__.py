"""Differential validation of the dual-engine simulation contract.

The reproduction's headline guarantee is that the event-driven ``fast``
engine produces :class:`repro.sim.stats.RunStatistics` bit-identical to the
reference ``cycle`` engine, and that parallel (``jobs>1``) sweeps are
bit-identical to serial ones.  Hand-written equivalence tests cover curated
points; this package *generates* scenarios:

* :mod:`repro.testing.scenarios` — a seeded random sampler over the
  mitigation × workload-mix × device-geometry space, plus fixed corpora;
* :mod:`repro.testing.fuzz` — the differential runner (``fast`` vs
  ``cycle``, serial vs process-pool), a shrinker that minimises failing
  scenarios to a reportable repro, and the campaign CLI
  (``python -m repro.testing.fuzz --seed N --count K --budget S``).
"""

from repro.testing.scenarios import (
    FUZZ_MECHANISMS,
    FuzzProfile,
    Scenario,
    boundary_corpus,
    build_simulation_config,
    build_system_config,
    build_workload,
    executor_corpus,
    fuzz_corpus,
    generate_scenarios,
)

#: Symbols re-exported from :mod:`repro.testing.fuzz`, loaded lazily so
#: ``python -m repro.testing.fuzz`` does not import the module twice
#: (runpy warns when a package eagerly imports the submodule it is about
#: to execute as ``__main__``).
_FUZZ_EXPORTS = (
    "DifferentialReport",
    "executor_differential",
    "repro_snippet",
    "run_differential",
    "run_scenario",
    "shrink",
)


def __getattr__(name: str):
    if name in _FUZZ_EXPORTS:
        from repro.testing import fuzz

        return getattr(fuzz, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "DifferentialReport",
    "FUZZ_MECHANISMS",
    "FuzzProfile",
    "Scenario",
    "boundary_corpus",
    "build_simulation_config",
    "build_system_config",
    "build_workload",
    "executor_corpus",
    "executor_differential",
    "fuzz_corpus",
    "generate_scenarios",
    "repro_snippet",
    "run_differential",
    "run_scenario",
    "shrink",
]
