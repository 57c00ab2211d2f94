"""ExperimentSpec validation, serialisation, and execution-knob precedence.

The precedence contract (satellite of the repro.api redesign): every
execution knob resolves in exactly one place,
:func:`repro.api.session.resolve_execution`, and **explicit spec/session
values always beat the ``REPRO_*`` environment variables**.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.experiments import ExperimentRunner
from repro.analysis.runcache import CACHE_DIR_ENV
from repro.api import (
    ExecutionPlan,
    ExperimentSpec,
    RunPoint,
    Session,
    load_spec,
    resolve_engine,
    resolve_execution,
)
from repro.sim.config import ENGINE_ENV, SystemConfig
from repro.analysis.executor import BACKEND_ENV, JOBS_ENV, resolve_backend


TINY = ExperimentSpec.tiny()


class TestValidation:
    def test_defaults_are_valid(self):
        ExperimentSpec()

    @pytest.mark.parametrize("overrides", [
        dict(sim_cycles=0),
        dict(entries_per_core=-1),
        dict(engine="warp"),
        dict(nrh_sweep=()),
        dict(nrh_sweep=(0,)),
        dict(seeds=()),
        dict(mechanisms=("para", "quantum_shield")),
        dict(attack_mixes=("MMLQ",)),          # unknown letter
        dict(attack_mixes=("MMA",)),           # wrong core count
        dict(attack_mixes=("MMLL",)),          # no attacker
        dict(outlier_threshold=0.0),
        dict(threat_threshold=-2.0),
        dict(engine="batch"),                  # deleted engine
    ])
    def test_invalid_specs_fail_up_front(self, overrides):
        with pytest.raises(ValueError):
            ExperimentSpec(**overrides)

    def test_sequences_coerced_to_tuples(self):
        spec = ExperimentSpec(nrh_sweep=[64, 128], mechanisms=["para"],
                              attack_mixes=["MMLA"], benign_mixes=["MMLL"],
                              seeds=[0, 1])
        assert spec.nrh_sweep == (64, 128)
        assert isinstance(hash(spec), int)  # frozen + hashable


class TestFingerprint:
    def test_equal_specs_equal_fingerprints(self):
        assert ExperimentSpec.tiny().fingerprint() == \
            ExperimentSpec.tiny().fingerprint()

    def test_unpinned_engine_digests_as_fast(self):
        assert ExperimentSpec.tiny().fingerprint() == \
            ExperimentSpec.tiny(engine="fast").fingerprint()
        assert ExperimentSpec.tiny().fingerprint() != \
            ExperimentSpec.tiny(engine="cycle").fingerprint()

    def test_scale_lands_in_new_namespace(self):
        assert ExperimentSpec.tiny().fingerprint() != \
            ExperimentSpec.tiny(sim_cycles=1_600).fingerprint()

    def test_session_fingerprint_matches_legacy_runner(self, tmp_path):
        """One spec -> one RunCache namespace, however it is executed."""

        with Session(TINY, jobs=1, cache_dir="") as serial, \
                Session(TINY, jobs=2, cache_dir=str(tmp_path)) as parallel:
            assert serial.fingerprint == parallel.fingerprint
            assert serial.fingerprint == TINY.fingerprint()

    def test_derived_system_config_moves_fingerprint(self, monkeypatch):
        """A change in how a spec maps onto the simulator is a new namespace.

        Cache entries computed under the old mapping must become
        unreachable, even though no spec field changed.
        """

        before = TINY.fingerprint()
        fast_profile = SystemConfig.fast_profile

        def skewed(*args, **kwargs):
            return fast_profile(*args, **kwargs).with_(num_cores=8)

        monkeypatch.setattr(SystemConfig, "fast_profile", skewed)
        assert TINY.fingerprint() != before


class TestHarnessBridge:
    def test_unresolved_engine_rejected(self):
        with pytest.raises(ValueError):
            ExperimentRunner(ExperimentSpec.tiny(),
                             ExecutionPlan(engine="fast"))


class TestSerialisation:
    def test_dict_round_trip(self):
        spec = ExperimentSpec.smoke(engine="cycle")
        assert ExperimentSpec.from_dict(spec.as_dict()) == spec

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown ExperimentSpec"):
            ExperimentSpec.from_dict({"warp_factor": 9})

    def test_load_toml(self, tmp_path):
        path = tmp_path / "sweep.toml"
        path.write_text(
            'profile = "tiny"\n'
            'figures = ["fig6", "fig12"]\n'
            '[spec]\n'
            'sim_cycles = 1200\n'
            'mechanisms = ["para", "rfm"]\n'
            '[execution]\n'
            'jobs = 2\n'
            'cache_dir = ""\n',
            encoding="utf-8",
        )
        spec_file = load_spec(path)
        assert spec_file.spec == ExperimentSpec.tiny(
            sim_cycles=1200, mechanisms=("para", "rfm"))
        assert spec_file.figures == ("fig6", "fig12")
        assert spec_file.jobs == 2
        assert spec_file.cache_dir == ""

    def test_load_json(self, tmp_path):
        path = tmp_path / "sweep.json"
        spec = ExperimentSpec.tiny()
        path.write_text(__import__("json").dumps(spec.as_dict()),
                        encoding="utf-8")
        assert load_spec(path).spec == spec

    def test_unknown_execution_keys_rejected(self, tmp_path):
        path = tmp_path / "sweep.toml"
        path.write_text('profile = "tiny"\n[execution]\nthreads = 4\n',
                        encoding="utf-8")
        with pytest.raises(ValueError, match="execution"):
            load_spec(path)

    def test_unsupported_format_rejected(self, tmp_path):
        path = tmp_path / "sweep.yaml"
        path.write_text("spec: {}", encoding="utf-8")
        with pytest.raises(ValueError, match="unsupported spec format"):
            load_spec(path)


class TestRunPoint:
    def test_run_spec_view(self):
        point = RunPoint("MMLA", "para", 64, True, seed=2)
        assert point.as_run_spec() == ("MMLA", "para", 64, True)


class TestExecutionPrecedence:
    """Explicit ExperimentSpec / Session values always beat REPRO_* vars."""

    def test_spec_engine_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "fast")
        plan = resolve_execution(ExperimentSpec.tiny(engine="cycle"))
        assert plan.engine == "cycle"

    def test_argument_engine_beats_spec_and_env(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "fast")
        plan = resolve_execution(ExperimentSpec.tiny(engine="fast"),
                                 engine="cycle")
        assert plan.engine == "cycle"

    def test_unpinned_engine_defers_to_env(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "cycle")
        assert resolve_execution(ExperimentSpec.tiny()).engine == "cycle"
        monkeypatch.delenv(ENGINE_ENV)
        assert resolve_execution(ExperimentSpec.tiny()).engine == "fast"

    def test_garbage_env_engine_rejected(self, monkeypatch):
        for engine in ("warp", "batch"):
            monkeypatch.setenv(ENGINE_ENV, engine)
            with pytest.raises(ValueError, match="not one of"):
                resolve_engine(None)

    def test_explicit_jobs_beat_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "8")
        assert resolve_execution(TINY, jobs=1).jobs == 1
        assert resolve_execution(TINY).jobs == 8
        # An explicit negative count is an error, not a cue to defer.
        with pytest.raises(ValueError, match="jobs"):
            resolve_execution(TINY, jobs=-3)

    def test_explicit_backend_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "cluster")
        assert resolve_execution(TINY, backend="local").backend == "local"
        assert resolve_execution(TINY).backend == "cluster"
        monkeypatch.delenv(BACKEND_ENV)
        assert resolve_execution(TINY).backend == "local"

    def test_garbage_backend_rejected(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "mainframe")
        with pytest.raises(ValueError, match="backend"):
            resolve_backend(None)
        monkeypatch.delenv(BACKEND_ENV)
        with pytest.raises(ValueError, match="backend"):
            resolve_backend("mainframe")

    def test_spec_file_execution_backend_keys(self, tmp_path):
        path = tmp_path / "sweep.toml"
        path.write_text(
            'profile = "tiny"\n'
            '[execution]\n'
            'backend = "cluster"\n'
            'broker = "unix:/tmp/b.sock"\n'
            'workers = 2\n',
            encoding="utf-8",
        )
        spec_file = load_spec(path)
        assert spec_file.backend == "cluster"
        assert spec_file.broker == "unix:/tmp/b.sock"
        assert spec_file.workers == 2

    def test_spec_file_negative_workers_rejected(self, tmp_path):
        path = tmp_path / "sweep.toml"
        path.write_text('profile = "tiny"\n[execution]\nworkers = -1\n',
                        encoding="utf-8")
        with pytest.raises(ValueError, match="workers"):
            load_spec(path)
        # Arguments are held to the same rule as spec files: a negative
        # fleet is an error, not zero workers and a sweep that never ends.
        assert resolve_execution(TINY, workers=2).workers == 2
        with pytest.raises(ValueError, match="workers"):
            resolve_execution(TINY, workers=-2)
        with pytest.raises(ValueError, match="workers"):
            Session(TINY, backend="cluster", workers=-2, cache_dir="")

    def test_explicit_cache_dir_beats_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env"))
        explicit = str(tmp_path / "explicit")
        assert resolve_execution(TINY, cache_dir=explicit).cache_dir \
            == explicit
        # "" force-disables even with the variable exported.
        assert resolve_execution(TINY, cache_dir="").cache_dir is None
        assert resolve_execution(TINY).cache_dir == str(tmp_path / "env")

    def test_session_applies_resolved_plan(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENGINE_ENV, "fast")
        monkeypatch.setenv(JOBS_ENV, "4")
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        spec = ExperimentSpec.tiny(engine="cycle")
        with Session(spec, jobs=1, cache_dir="") as session:
            assert session.engine == "cycle"
            assert session.jobs == 1
            assert session.cache is None
            # The resolved engine lands in every run key (and cache key).
            key = session.runner.run_key("MMLA", "para", 64, False)
            assert key[-1] == "cycle"

    def test_session_defers_to_env_when_unpinned(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENGINE_ENV, "cycle")
        monkeypatch.delenv(JOBS_ENV, raising=False)
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        with Session(ExperimentSpec.tiny()) as session:
            assert session.engine == "cycle"
            assert session.jobs == 1
            assert session.cache is not None
            assert str(session.cache.root) == str(tmp_path)
