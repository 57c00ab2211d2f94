"""Parallel sweep executor, on-disk run cache, and cache-key hygiene.

The contract pinned here: a sweep dispatched through ``submit_prefetch``
with ``jobs=N`` (worker processes regenerating traces from (spec, seed))
must produce ``RunStatistics`` bit-identical to the serial path, and the
persistent on-disk cache must round-trip them exactly — across runner
instances and without aliasing between distinct configurations.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.executor import (
    JOBS_ENV,
    ProcessPoolSweepExecutor,
    RunTask,
    SerialSweepExecutor,
    iter_completed,
    resolve_jobs,
)
from repro.analysis.experiments import ExperimentRunner
from repro.analysis.runcache import RunCache
from repro.api import ExperimentSpec, Session
from repro.sim.stats import RunStatistics


def tiny_spec(**overrides) -> ExperimentSpec:
    """The smallest grid that still exercises attack + benign + baselines."""

    base = dict(
        sim_cycles=2_000,
        entries_per_core=800,
        attacker_entries=1_000,
        nrh_sweep=(1024, 64),
        attack_mixes=("MMLA",),
        benign_mixes=("MMLL",),
        mechanisms=("para", "rfm"),
        seeds=(0,),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def tiny_runner(jobs: int = 1, cache_dir="", engine=None,
                **spec_overrides) -> ExperimentRunner:
    """A runner built through the supported Session/ExperimentSpec path.

    Defaults keep it hermetic against exported env knobs: ``jobs=1``
    stays serial even under ``REPRO_JOBS``, and ``cache_dir=""``
    force-disables the disk cache even under ``REPRO_CACHE_DIR``.
    """

    session = Session(tiny_spec(**spec_overrides), jobs=jobs,
                      cache_dir=cache_dir, engine=engine)
    return session.runner


GRID = [
    ("MMLA", "para", 64, False),
    ("MMLA", "para", 64, True),
    ("MMLA", "rfm", 64, False),
    ("MMLA", "rfm", 64, True),
    ("MMLA", "none", 1024, False),
]


class TestResolveJobs:
    def test_explicit_request_wins(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "8")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "4")
        assert resolve_jobs(0) == 4

    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs(0) == 1

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "many")
        with pytest.raises(ValueError):
            resolve_jobs(0)

    @pytest.mark.parametrize("requested", [-1, -3])
    def test_negative_request_rejected(self, monkeypatch, requested):
        # Not replaced by the environment's count, nor by serial.
        monkeypatch.setenv(JOBS_ENV, "4")
        with pytest.raises(ValueError, match="non-negative"):
            resolve_jobs(requested)


class TestParallelDeterminism:
    """REPRO_JOBS=4 must be bit-identical to the serial path."""

    def test_parallel_sweep_bit_identical_to_serial(self):
        serial = tiny_runner()
        for mix, mechanism, nrh, bh in GRID:
            serial.run(mix, mechanism, nrh, bh)

        with tiny_runner(jobs=4) as parallel:
            assert parallel.jobs == 4
            assert isinstance(parallel._executor, ProcessPoolSweepExecutor)
            handles = parallel.submit_prefetch(GRID, alone_mixes=("MMLA",))
            for handle in iter_completed(handles):
                handle.result()
            assert parallel.runs_executed == len(GRID)
            for mix, mechanism, nrh, bh in GRID:
                key = serial.run_key(mix, mechanism, nrh, bh)
                assert key == parallel.run_key(mix, mechanism, nrh, bh)
                assert dataclasses.asdict(serial.run(mix, mechanism, nrh, bh)) \
                    == dataclasses.asdict(parallel.run(mix, mechanism, nrh, bh))
            # Standalone-IPC baselines came back from workers, identically.
            mix = serial.mix("MMLA")
            for trace in mix.traces:
                assert serial.alone_ipc(trace) == parallel.alone_ipc(trace)

    def test_parallel_figure_equals_serial_figure(self):
        serial = tiny_runner()
        with tiny_runner(jobs=2) as parallel:
            fig_serial = serial.figure6(nrh=64)
            fig_parallel = parallel.figure6(nrh=64)
            assert fig_serial.as_dict() == fig_parallel.as_dict()

    def test_prefetch_skips_memoised_points(self):
        runner = tiny_runner()
        runner.run("MMLA", "para", 64, False)
        executed_before = runner.runs_executed
        (handle,) = runner.submit_prefetch([("MMLA", "para", 64, False)])
        assert handle.cached
        handle.result()
        assert runner.runs_executed == executed_before


class TestDiskCache:
    def test_round_trip_is_exact(self, tmp_path):
        first = tiny_runner(cache_dir=str(tmp_path))
        stats = first.run("MMLA", "para", 64, True)
        assert first.disk_cache is not None
        assert len(first.disk_cache) == 1

        second = tiny_runner(cache_dir=str(tmp_path))
        reloaded = second.run("MMLA", "para", 64, True)
        assert second.runs_executed == 0
        assert second.disk_cache.hits == 1
        assert dataclasses.asdict(reloaded) == dataclasses.asdict(stats)

    def test_alone_baselines_persisted_too(self, tmp_path):
        first = tiny_runner(cache_dir=str(tmp_path))
        figure = first.figure6(nrh=64)
        # Grid points *and* the per-trace standalone-IPC baselines landed
        # on disk, so a fresh invocation simulates nothing at all.
        assert len(first.disk_cache) > first.runs_executed
        second = tiny_runner(cache_dir=str(tmp_path))
        again = second.figure6(nrh=64)
        assert second.runs_executed == 0
        assert second.disk_cache.misses == 0
        assert again.as_dict() == figure.as_dict()

    def test_payload_round_trip_bit_exact(self):
        runner = tiny_runner()
        stats = runner.run("MMLA", "rfm", 64, False)
        clone = RunStatistics.from_payload(stats.to_payload())
        assert dataclasses.asdict(clone) == dataclasses.asdict(stats)
        assert clone.energy.total_mj == stats.energy.total_mj

    def test_jobs_and_cache_dir_do_not_change_fingerprint(self, tmp_path):
        plain = tiny_runner()
        tuned = tiny_runner(jobs=2, cache_dir=str(tmp_path))
        tuned.close()
        assert plain.fingerprint == tuned.fingerprint

    def test_distinct_configs_use_distinct_namespaces(self, tmp_path):
        a = tiny_runner(cache_dir=str(tmp_path))
        b = tiny_runner(sim_cycles=2_500, cache_dir=str(tmp_path))
        assert a.fingerprint != b.fingerprint
        a.run("MMLA", "para", 64, False)
        # The other configuration must not see the entry.
        assert b.run_key("MMLA", "para", 64, False) != \
            a.run_key("MMLA", "para", 64, False)
        assert b.disk_cache.get(b.run_key("MMLA", "para", 64, False)) is None

    def test_unwritable_location_degrades_gracefully(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        cache = RunCache(blocker / "cache", "fp")
        cache.put(("k",), RunStatistics(cycles=1))  # must not raise
        assert cache.write_errors == 1
        assert cache.writes == 0
        assert cache.get(("k",)) is None

    def test_torn_entry_treated_as_miss(self, tmp_path):
        cache = RunCache(tmp_path, "deadbeef")
        stats = RunStatistics(cycles=7)
        cache.put(("k",), stats)
        path = cache._path(("k",))
        path.write_bytes(b"\x00garbage")
        assert cache.get(("k",)) is None
        cache.put(("k",), stats)
        assert cache.get(("k",)).cycles == 7

    def test_disabled_without_configuration(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        runner = tiny_runner(cache_dir=None)
        assert runner.disk_cache is None

    def test_empty_string_force_disables(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert tiny_runner(cache_dir="").disk_cache is None
        assert tiny_runner(cache_dir=None).disk_cache is not None


class TestRunKeyHygiene:
    """Distinct trace/scale configurations must never share cache entries."""

    def test_run_key_includes_trace_and_engine_parameters(self):
        runner = tiny_runner()
        key = runner.run_key("MMLA", "para", 64, True, seed=3)
        assert key == ("MMLA", 3, "para", 64, True, 800, 1_000, 2_000, "fast")

    def test_entry_counts_separate_run_keys(self):
        small = tiny_runner()
        large = tiny_runner(entries_per_core=1_600)
        assert small.run_key("MMLA", "para", 64, False) != \
            large.run_key("MMLA", "para", 64, False)

    def test_engine_separates_run_keys(self):
        fast = tiny_runner()
        cycle = tiny_runner(engine="cycle")
        assert fast.run_key("MMLA", "para", 64, False) != \
            cycle.run_key("MMLA", "para", 64, False)

    def test_mix_cache_keyed_by_trace_sizes(self):
        runner = tiny_runner()
        runner.mix("MMLL")
        runner.spec = dataclasses.replace(runner.spec,
                                          entries_per_core=400)
        other = runner.mix("MMLL")
        assert len(runner._mix_cache) == 2
        assert len(other.traces[0]) == 400

    def test_alone_ipc_keyed_by_trace_length(self):
        runner = tiny_runner()
        trace = runner.mix("MMLL").traces[0]
        runner.alone_ipc(trace)
        assert (trace.name, len(trace)) in runner._alone_ipc_cache


class TestSerialExecutorPath:
    def test_serial_runner_uses_serial_executor(self):
        runner = tiny_runner()
        assert isinstance(runner._executor, SerialSweepExecutor)
        assert runner.jobs == 1

    def test_unknown_task_kind_rejected(self):
        runner = tiny_runner()
        future = runner._executor.submit(
            RunTask(kind="teleport", mix_name="MMLL"))
        with pytest.raises(ValueError):
            future.result()
