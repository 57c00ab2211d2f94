"""The seed axis: every figure cell is a statistic, not a point estimate.

The contract pinned here (acceptance criteria of the statistics refactor):

* ``seeds=(0,)`` specs are **bit-identical** to the pre-statistics
  pipeline — figure dictionaries carry no ``series_stats`` key and the
  rendered text report is byte-stable.
* Multi-seed specs aggregate per-seed frames into mean ± 95% CI cells,
  identically on the serial executor and the ``jobs=2`` process pool.
* Seeds are first-class cache-key components: a warm on-disk cache over a
  multi-seed sweep (including the per-trace standalone-IPC baselines)
  recomputes nothing.
* Adaptive campaigns (``Session.figure(..., target_ci=)``) escalate
  seeds *only* for cells whose CI half-width misses the target, and stop
  at the seed budget.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.aggregate import (
    SeriesStats,
    aggregate_figures,
    aggregate_headlines,
)
from repro.analysis.figures import FigureData
from repro.analysis.report import render_figure
from repro.api import ExperimentSpec, Session

#: tests/test_sweep_executor.py's tiny grid, with the seed axis added.
BASE = dict(
    sim_cycles=2_000,
    entries_per_core=800,
    attacker_entries=1_000,
    nrh_sweep=(1024, 64),
    attack_mixes=("MMLA",),
    benign_mixes=("MMLL",),
    mechanisms=("para", "rfm"),
)

SINGLE = ExperimentSpec(seeds=(0,), **BASE)
MULTI = ExperimentSpec(seeds=(0, 1, 2), **BASE)


def figure6_dict(spec: ExperimentSpec, **session_kwargs) -> dict:
    with Session(spec, cache_dir="", **session_kwargs) as session:
        return session.figure("fig6", nrh=64).as_dict()


class TestSeriesStats:
    def test_single_sample_degenerates_exactly(self):
        cell = SeriesStats.from_samples([1.25])
        assert cell == SeriesStats(n=1, mean=1.25, std=0.0, ci95=0.0)

    def test_known_samples(self):
        cell = SeriesStats.from_samples([1.0, 2.0, 3.0])
        assert cell.n == 3
        assert cell.mean == pytest.approx(2.0)
        assert cell.std == pytest.approx(1.0)
        assert cell.ci95 == pytest.approx(1.96 / math.sqrt(3))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SeriesStats.from_samples([])

    def test_dict_round_trip(self):
        cell = SeriesStats.from_samples([0.5, 0.7])
        assert SeriesStats.from_dict(cell.as_dict()) == cell


class TestAggregation:
    def _frame(self, values) -> FigureData:
        figure = FigureData("f", "t", "x", "y", [64, 1024])
        figure.add_series("a", list(values))
        return figure

    def test_single_frame_is_identity(self):
        frame = self._frame([1.0, 2.0])
        assert aggregate_figures([frame]) is frame

    def test_multi_frame_means_and_stats(self):
        folded = aggregate_figures(
            [self._frame([1.0, 4.0]), self._frame([3.0, 4.0])]
        )
        series = folded.get("a")
        assert series.values == [2.0, 4.0]
        assert [cell.n for cell in series.stats] == [2, 2]
        assert series.stats[1].ci95 == 0.0  # identical samples
        assert "series_stats" in folded.as_dict()

    def test_structural_mismatch_rejected(self):
        other = FigureData("f", "t", "x", "y", [64])
        other.add_series("a", [1.0])
        with pytest.raises(ValueError):
            aggregate_figures([self._frame([1.0, 2.0]), other])

    def test_headline_fold(self):
        assert aggregate_headlines([{"k": 1.0}]) == {"k": 1.0}
        assert aggregate_headlines([{"k": 1.0}, {"k": 3.0}]) == {"k": 2.0}


class TestSingleSeedByteStability:
    def test_no_series_stats_key(self):
        snap = figure6_dict(SINGLE, jobs=1)
        assert "series_stats" not in snap
        assert set(snap["series"]) == {"para+BH", "rfm+BH"}

    def test_render_has_no_ci_decorations(self):
        with Session(SINGLE, jobs=1, cache_dir="") as session:
            text = render_figure(session.figure("fig6", nrh=64))
        assert "±" not in text
        assert "CI" not in text


class TestMultiSeedAggregates:
    @pytest.fixture(scope="class")
    def serial(self) -> dict:
        return figure6_dict(MULTI, jobs=1)

    def test_stats_shape(self, serial):
        stats = serial["series_stats"]
        for label, series in serial["series"].items():
            for index, cell in enumerate(stats[label]):
                assert cell["n"] == 3
                assert math.isfinite(cell["ci95"]) and cell["ci95"] >= 0.0
                assert series[index] == cell["mean"]

    def test_multi_seed_mean_differs_from_seed_zero(self, serial):
        single = figure6_dict(SINGLE, jobs=1)
        assert serial["series"] != single["series"]

    def test_pool_matches_serial(self, serial):
        assert figure6_dict(MULTI, jobs=2) == serial

    def test_headline_numbers_aggregate(self):
        with Session(MULTI, jobs=1, cache_dir="") as multi, \
                Session(SINGLE, jobs=1, cache_dir="") as single:
            folded = multi.headline_numbers()
            reference = single.headline_numbers()
            assert list(folded) == list(reference)
            assert folded != reference

    def test_report_renders_ci_cells(self):
        with Session(MULTI, jobs=1, cache_dir="") as session:
            text = render_figure(session.figure("fig6", nrh=64))
        assert "±" in text
        assert "(mean ± 95% CI half-width over 3 seeds)" in text


class TestSeedCacheHygiene:
    def test_seed_is_a_run_key_component(self):
        with Session(SINGLE, jobs=1, cache_dir="") as session:
            runner = session.runner
            zero = runner.run_key("MMLA", "para", 64, True, seed=0)
            one = runner.run_key("MMLA", "para", 64, True, seed=1)
            assert zero != one
            assert zero[1] == 0 and one[1] == 1

    def test_warm_cache_recomputes_nothing_across_seeds(self, tmp_path):
        spec = ExperimentSpec(seeds=(0, 1), **BASE)
        cache_dir = str(tmp_path / "cache")
        with Session(spec, jobs=1, cache_dir=cache_dir) as cold:
            figure = cold.figure("fig6", nrh=64)
            assert cold.runs_executed > 0
        # Grid points for *both* seeds and the per-seed standalone-IPC
        # baselines all landed on disk: a fresh session simulates nothing.
        with Session(spec, jobs=1, cache_dir=cache_dir) as warm:
            again = warm.figure("fig6", nrh=64)
            assert warm.runs_executed == 0
            assert warm.cache.misses == 0
        assert again.as_dict() == figure.as_dict()


class TestAdaptiveCampaigns:
    def test_requires_multi_seed_base(self):
        with Session(SINGLE, jobs=1, cache_dir="") as session:
            with pytest.raises(ValueError):
                session.figure("fig6", nrh=64, target_ci=0.01)

    def test_max_seeds_requires_target(self):
        with Session(MULTI, jobs=1, cache_dir="") as session:
            with pytest.raises(ValueError):
                session.figure("fig6", nrh=64, max_seeds=5)

    def test_huge_target_never_escalates(self):
        spec = ExperimentSpec(seeds=(0, 1), **BASE)
        with Session(spec, jobs=1, cache_dir="") as session:
            figure = session.figure("fig6", nrh=64, target_ci=1e9)
            baseline_runs = session.runs_executed
        with Session(spec, jobs=1, cache_dir="") as plain:
            reference = plain.figure("fig6", nrh=64)
            assert plain.runs_executed == baseline_runs
        assert figure.as_dict() == reference.as_dict()
        for series in figure.series.values():
            assert all(cell.n == 2 for cell in series.stats)

    def test_escalates_only_wide_cells_within_budget(self):
        # graphene is deterministic across seeds at this scale (std == 0),
        # so its cells can never be wide; para/rfm are seed-sensitive.
        spec = ExperimentSpec(
            seeds=(0, 1),
            **dict(BASE, mechanisms=("para", "graphene", "rfm")),
        )
        with Session(spec, jobs=1, cache_dir="") as session:
            figure = session.figure("fig6", nrh=64,
                                    target_ci=0.0, max_seeds=4)
            adaptive_runs = session.runs_executed
        with Session(spec, jobs=1, cache_dir="") as plain:
            plain.figure("fig6", nrh=64)
            base_runs = plain.runs_executed
        counts = {
            (label, x): series.stats[index].n
            for label, series in figure.series.items()
            for index, x in enumerate(figure.x_values)
        }
        # target_ci=0.0 makes every cell with seed-to-seed variance wide,
        # so those cells climb to the max_seeds budget; zero-variance
        # cells (ci95 == 0.0 is not > 0.0) never escalate and stay at the
        # base batch's two samples.
        assert set(counts.values()) <= {2, 4}
        escalated = {cell for cell, n in counts.items() if n == 4}
        assert escalated, "expected at least one seed-sensitive cell"
        for (label, x), n in counts.items():
            series = figure.series[label]
            index = figure.x_values.index(x)
            if n == 2:
                assert series.stats[index].ci95 == 0.0
        # Escalation rounds recomputed only the wide cells' runs — far
        # fewer than re-running the whole base grid per extra seed.
        assert adaptive_runs > base_runs
        assert adaptive_runs < 2 * base_runs

    def test_escalation_plan_narrows_to_wide_series(self):
        with Session(MULTI, jobs=1, cache_dir="") as session:
            runner = session.runner
            plan = runner.figure_plan("fig6", nrh=64)
            escalation = runner.escalation_plan(
                plan, [("para+BH", "geomean")]
            )
            mechanisms = {run[1] for run in escalation.runs}
            assert mechanisms == {"para"}
            assert list(escalation.meta["series"]) == ["para+BH"]


@pytest.mark.stats_smoke
def test_stats_smoke_multi_seed_point():
    """One multi-seed figure point through the statistics path."""

    spec = ExperimentSpec(seeds=(0, 1), **dict(BASE, mechanisms=("para",)))
    with Session(spec, jobs=2, cache_dir="") as session:
        figure = session.figure("fig6", nrh=64)
    series = figure.get("para+BH")
    assert series.stats and all(cell.n == 2 for cell in series.stats)
    assert all(math.isfinite(cell.ci95) for cell in series.stats)


def test_fig19_and_table3_read_the_spec_seeds(monkeypatch):
    """Neither falls back to seed 0 behind a spec without it."""

    from repro.analysis.experiments import ExperimentRunner

    asked = []
    original = ExperimentRunner.mix

    def recording(self, name, seed=0):
        asked.append(seed)
        return original(self, name, seed)

    monkeypatch.setattr(ExperimentRunner, "mix", recording)
    with Session(ExperimentSpec.tiny(seeds=(1, 2)), jobs=1,
                 cache_dir="") as session:
        figure = session.figure("fig19", threat_thresholds=(8.0, 32.0),
                                nrh_values=(64,))
        assert set(asked) == {1, 2}
        assert all(cell.n == 2 for series in figure.series.values()
                   for cell in series.stats)
        asked.clear()
        session.table("table3")
        assert set(asked) == {1}
