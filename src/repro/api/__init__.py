"""repro.api — the declarative public experiment surface.

The stable way to run this reproduction's sweeps:

* :class:`ExperimentSpec` — a frozen, validated, fingerprint-stable
  description of *what* to compute (mixes × mechanisms × N_RH ×
  BreakHammer × engine/seed/scale);
* :class:`Session` — owns executor + run-cache lifecycle for one spec and
  returns :class:`RunHandle` futures; figures subscribe to handles and
  aggregate as results stream in;
* :func:`load_spec` + ``python -m repro.api run <spec.toml|json>`` — the
  file/CLI form of the same thing (fuzz campaigns and the bundled
  examples share the CLI via ``python -m repro.api fuzz`` / ``examples``);
* :func:`resolve_execution` — the one documented resolution point for the
  ``REPRO_ENGINE`` / ``REPRO_JOBS`` / ``REPRO_CACHE_DIR`` /
  ``REPRO_BACKEND`` environment variables (explicit spec/session values
  always win), producing an :class:`ExecutionPlan`.
"""

from repro.analysis.executor import (
    ExecutionPlan,
    RunHandle,
    SweepPlan,
    iter_completed,
)
from repro.api.session import (
    DEFAULT_ENGINE,
    Session,
    resolve_engine,
    resolve_execution,
)
from repro.api.spec import (
    ExperimentSpec,
    RunPoint,
    SpecFile,
    load_spec,
)

__all__ = [
    "DEFAULT_ENGINE",
    "ExecutionPlan",
    "ExperimentSpec",
    "RunHandle",
    "RunPoint",
    "Session",
    "SpecFile",
    "SweepPlan",
    "iter_completed",
    "load_spec",
    "resolve_engine",
    "resolve_execution",
]
