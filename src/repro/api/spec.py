"""Declarative experiment specifications.

:class:`ExperimentSpec` is the single frozen description of *what* a sweep
computes: the workload mixes, the mitigation mechanisms, the N_RH sweep,
the BreakHammer thresholds, the simulation engine, the seeds, and the
scale (cycles per run, trace sizes).  Everything in a spec affects
simulation **results** — execution knobs (worker count, cache directory)
live on :class:`repro.api.Session` instead, so one spec always lands in
one :class:`repro.analysis.runcache.RunCache` fingerprint namespace no
matter how it is executed.

Specs are validated up front (unknown mechanisms, malformed mixes, bad
engines and non-positive scales fail at construction, not mid-sweep),
fingerprint-stable (:meth:`ExperimentSpec.fingerprint` digests every field
and the system and simulation configurations they derive), and
serialisable: :func:`load_spec` reads the TOML/JSON files the
``python -m repro.api run`` CLI consumes, and :meth:`ExperimentSpec.as_dict`
round-trips through :meth:`ExperimentSpec.from_dict`.

``engine=None`` means "not pinned": the session resolves it through the
one documented precedence chain (explicit spec field > ``REPRO_ENGINE`` >
``"fast"``, see :func:`repro.api.session.resolve_execution`).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.mitigations.registry import PAIRED_MECHANISMS
from repro.sim.config import (
    SIMULATION_ENGINES,
    SimulationConfig,
    SystemConfig,
    config_fingerprint,
)
from repro.workloads.mixes import (
    ATTACK_MIXES,
    ATTACKER_LETTERS,
    BENIGN_MIXES,
    MIX_LETTER_SET,
)

#: Workload letters :func:`repro.workloads.mixes.make_mix` understands
#: (``A``/``S``/``X`` are the double-sided, many-sided, and half-double
#: attacker geometries).
MIX_LETTERS = MIX_LETTER_SET

#: Cores of the harness machine — every harness mix names one per core.
HARNESS_CORES = 4


@dataclass(frozen=True)
class RunPoint:
    """One grid coordinate of a spec: the unit a session submits."""

    mix: str
    mechanism: str
    nrh: int
    breakhammer: bool = False
    seed: int = 0

    def as_run_spec(self) -> Tuple[str, str, int, bool]:
        """The ``(mix, mechanism, nrh, breakhammer)`` tuple sweep plans list."""

        return (self.mix, self.mechanism, self.nrh, self.breakhammer)


@dataclass(frozen=True)
class ExperimentSpec:
    """A complete, validated description of one experiment sweep.

    Every field affects results; the execution knobs (``jobs``,
    ``cache_dir``) live on
    :class:`repro.analysis.executor.ExecutionPlan` instead.
    """

    sim_cycles: int = 25_000
    entries_per_core: int = 8_000
    attacker_entries: int = 12_000
    nrh_default: int = 1024
    nrh_low: int = 64
    nrh_sweep: Tuple[int, ...] = (4096, 2048, 1024, 512, 256, 128, 64)
    attack_mixes: Tuple[str, ...] = tuple(ATTACK_MIXES)
    benign_mixes: Tuple[str, ...] = tuple(BENIGN_MIXES)
    mechanisms: Tuple[str, ...] = tuple(PAIRED_MECHANISMS)
    seeds: Tuple[int, ...] = (0,)
    threat_threshold: float = 4.0
    outlier_threshold: float = 0.65
    engine: Optional[str] = None

    def __post_init__(self) -> None:
        # Coerce sequences so specs are hashable and fingerprint-stable no
        # matter how the caller spelled them (lists from TOML/JSON).
        for name in ("nrh_sweep", "attack_mixes", "benign_mixes",
                     "mechanisms", "seeds"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        self._validate()

    # ------------------------------------------------------------------ #
    # Validation — fail at construction, not mid-sweep.
    # ------------------------------------------------------------------ #
    def _validate(self) -> None:
        from repro.mitigations.registry import available_mechanisms

        if self.sim_cycles <= 0:
            raise ValueError("sim_cycles must be positive")
        if self.entries_per_core <= 0 or self.attacker_entries <= 0:
            raise ValueError("trace entry counts must be positive")
        if self.engine is not None and self.engine not in SIMULATION_ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of "
                f"{SIMULATION_ENGINES} (or None to defer to REPRO_ENGINE)"
            )
        if not self.nrh_sweep:
            raise ValueError("nrh_sweep cannot be empty")
        for nrh in (*self.nrh_sweep, self.nrh_default, self.nrh_low):
            if not isinstance(nrh, int) or nrh <= 0:
                raise ValueError(f"N_RH values must be positive ints: {nrh!r}")
        if not self.seeds:
            raise ValueError("need at least one seed")
        known = set(available_mechanisms())
        for mechanism in self.mechanisms:
            if mechanism not in known:
                raise ValueError(
                    f"unknown mechanism {mechanism!r}; "
                    f"available: {', '.join(sorted(known))}"
                )
        if not self.attack_mixes and not self.benign_mixes:
            raise ValueError("need at least one workload mix")
        for mix in (*self.attack_mixes, *self.benign_mixes):
            self._validate_mix(mix)
        for mix in self.attack_mixes:
            if not set(mix.upper()) & set(ATTACKER_LETTERS):
                raise ValueError(
                    f"attack mix {mix!r} has no attacker core (need one "
                    f"of {sorted(ATTACKER_LETTERS)})"
                )
        if not 0.0 < self.outlier_threshold <= 1.0:
            raise ValueError("outlier_threshold must be in (0, 1]")
        if self.threat_threshold <= 0:
            raise ValueError("threat_threshold must be positive")

    @staticmethod
    def _validate_mix(mix: str) -> None:
        """One mix string: known letters, one per harness core.

        Fails here, at construction, with the available letters instead
        of surfacing deep inside trace generation mid-sweep.
        """

        bad = set(mix.upper()) - MIX_LETTERS
        if bad:
            raise ValueError(
                f"mix {mix!r} uses unknown workload letters {sorted(bad)}; "
                f"available letters: {', '.join(sorted(MIX_LETTERS))}"
            )
        if len(mix) != HARNESS_CORES:
            raise ValueError(
                f"mix {mix!r} must name {HARNESS_CORES} cores "
                "(one letter per core of the harness machine)"
            )

    # ------------------------------------------------------------------ #
    # Profiles
    # ------------------------------------------------------------------ #
    @classmethod
    def full(cls, **overrides) -> "ExperimentSpec":
        """The paper's full sweep (long)."""

        return cls(**overrides)

    @classmethod
    def fast(cls, **overrides) -> "ExperimentSpec":
        """A profile small enough for CI and the pytest benchmarks."""

        base = dict(
            sim_cycles=12_000,
            entries_per_core=4_000,
            attacker_entries=6_000,
            nrh_sweep=(4096, 1024, 256, 64),
            attack_mixes=("HHMA", "MMLA"),
            benign_mixes=("HHMM", "MMLL"),
        )
        base.update(overrides)
        return cls(**base)

    @classmethod
    def smoke(cls, **overrides) -> "ExperimentSpec":
        """The smallest useful profile (unit/integration tests)."""

        base = dict(
            sim_cycles=6_000,
            entries_per_core=2_000,
            attacker_entries=3_000,
            nrh_sweep=(1024, 64),
            attack_mixes=("MMLA",),
            benign_mixes=("MMLL",),
            mechanisms=("para", "graphene", "rfm"),
        )
        base.update(overrides)
        return cls(**base)

    @classmethod
    def tiny(cls, **overrides) -> "ExperimentSpec":
        """Micro scale for examples, smoke CI, and streaming tests."""

        base = dict(
            sim_cycles=1_500,
            entries_per_core=600,
            attacker_entries=800,
            nrh_sweep=(64,),
            attack_mixes=("MMLA",),
            benign_mixes=("MMLL",),
            mechanisms=("para",),
        )
        base.update(overrides)
        return cls(**base)

    @classmethod
    def profile(cls, name: str, **overrides) -> "ExperimentSpec":
        """Look a profile up by name (``full``/``fast``/``smoke``/``tiny``)."""

        factories = {"full": cls.full, "fast": cls.fast,
                     "smoke": cls.smoke, "tiny": cls.tiny}
        if name not in factories:
            raise ValueError(
                f"unknown profile {name!r}; one of {sorted(factories)}"
            )
        return factories[name](**overrides)

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #
    def resolved(self, engine: str) -> "ExperimentSpec":
        """This spec with the engine pinned (sessions store the result)."""

        if engine not in SIMULATION_ENGINES:
            raise ValueError(f"unknown engine {engine!r}")
        if self.engine == engine:
            return self
        return dataclasses.replace(self, engine=engine)

    def base_system(self) -> SystemConfig:
        """The system every run of this spec derives its config from."""

        return SystemConfig.fast_profile(
            sim_cycles=self.sim_cycles,
            threat_threshold=self.threat_threshold,
            outlier_threshold=self.outlier_threshold,
        )

    def simulation_config(self) -> SimulationConfig:
        """The per-run simulation bounds (the engine must be resolved)."""

        return SimulationConfig(max_cycles=self.sim_cycles,
                                engine=self.engine)

    def fingerprint(self) -> str:
        """The run-cache namespace of this spec's results.

        Digests every field plus the derived :meth:`base_system` and
        :meth:`simulation_config`, so a change to how a spec maps onto
        the simulator also lands in a fresh namespace.

        Unpinned engines digest as the default ``"fast"`` so that a spec
        resolved explicitly to the default and an unpinned spec share one
        cache namespace (they compute identical results).
        """

        resolved = self if self.engine is not None else self.resolved("fast")
        return config_fingerprint(resolved, resolved.base_system(),
                                  resolved.simulation_config())

    def grid(self, mixes: Optional[Sequence[str]] = None,
             breakhammer_values: Sequence[bool] = (False, True),
             ) -> List[RunPoint]:
        """The cartesian mixes × mechanisms × nrh × BH × seeds grid."""

        mixes = list(mixes if mixes is not None
                     else (*self.attack_mixes, *self.benign_mixes))
        return [
            RunPoint(mix, mechanism, nrh, bh, seed)
            for seed in self.seeds
            for mechanism in self.mechanisms
            for nrh in self.nrh_sweep
            for bh in breakhammer_values
            for mix in mixes
        ]

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def as_dict(self) -> Dict[str, object]:
        data = dataclasses.asdict(self)
        for name, value in data.items():
            if isinstance(value, tuple):
                data[name] = list(value)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object],
                  profile: Optional[str] = None) -> "ExperimentSpec":
        """Build a spec from plain data, optionally over a named profile."""

        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown ExperimentSpec fields: {unknown}")
        if profile:
            return cls.profile(profile, **data)
        return cls(**data)

    def dump_json(self, path: Path | str) -> None:
        Path(path).write_text(json.dumps(self.as_dict(), indent=2) + "\n",
                              encoding="utf-8")


@dataclass(frozen=True)
class SpecFile:
    """A parsed spec file: the spec plus file-level run directives."""

    spec: ExperimentSpec
    figures: Tuple[str, ...] = ()
    jobs: Optional[int] = None
    cache_dir: Optional[str] = None


def _parse_spec_data(data: Dict[str, object], source: str) -> SpecFile:
    data = dict(data)
    profile = data.pop("profile", None)
    figures = tuple(data.pop("figures", ()) or ())
    execution = dict(data.pop("execution", {}) or {})
    spec_fields = dict(data.pop("spec", {}) or {})
    # Top-level spec fields are accepted too (flat JSON dumps round-trip).
    spec_fields.update(data)
    jobs = execution.pop("jobs", None)
    cache_dir = execution.pop("cache_dir", None)
    if execution:
        raise ValueError(
            f"{source}: unknown [execution] keys: {sorted(execution)}"
        )
    if jobs is not None and (not isinstance(jobs, int) or jobs < 0):
        raise ValueError(f"{source}: jobs must be a non-negative integer")
    spec = ExperimentSpec.from_dict(spec_fields, profile=profile)
    return SpecFile(spec=spec, figures=figures, jobs=jobs,
                    cache_dir=cache_dir)


def load_spec(path: Path | str) -> SpecFile:
    """Parse a ``.toml`` or ``.json`` experiment spec file.

    The format::

        profile = "smoke"           # optional base profile
        figures = ["fig2", "fig6"]  # optional figure selection

        [spec]                      # overrides on top of the profile
        sim_cycles = 2000
        mechanisms = ["para", "rfm"]

        [execution]                 # optional execution defaults
        jobs = 2                    # worker processes (1 = serial)
        cache_dir = "/tmp/repro-cache"

    JSON files use the same keys.  Execution values from the file rank
    below explicit CLI flags / ``Session`` arguments and above ``REPRO_*``
    environment variables (see ``resolve_execution``).
    """

    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() == ".json":
        data = json.loads(text)
    elif path.suffix.lower() == ".toml":
        import tomllib

        data = tomllib.loads(text)
    else:
        raise ValueError(
            f"{path}: unsupported spec format {path.suffix!r} "
            "(expected .toml or .json)"
        )
    if not isinstance(data, dict):
        raise ValueError(f"{path}: spec file must contain a table/object")
    return _parse_spec_data(data, str(path))
