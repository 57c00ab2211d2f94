"""Tests for the experiment harness, figure containers, and text reports."""

import pytest

from repro.analysis.figures import ComparisonEntry, FigureData, TableData
from repro.analysis.report import (
    figure_summary,
    render_comparisons,
    render_figure,
    render_table,
)
from repro.api import ExperimentSpec, Session


@pytest.fixture(scope="module")
def runner():
    """A shared smoke-scale runner (module-scoped: runs are memoised)."""

    return Session(ExperimentSpec.smoke(), jobs=1, cache_dir="").runner


class TestFigureData:
    def test_add_series_validates_length(self):
        figure = FigureData("f", "t", "x", "y", [1, 2, 3])
        figure.add_series("a", [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            figure.add_series("b", [1.0])

    def test_rows_and_lookup(self):
        figure = FigureData("f", "t", "nrh", "y", [64, 128])
        figure.add_series("mech", [0.5, 0.6])
        rows = figure.as_rows()
        assert rows[0] == {"nrh": 64, "mech": 0.5}
        assert figure.get("mech").mean == pytest.approx(0.55)
        assert figure.labels() == ["mech"]

    def test_as_dict_snapshots(self):
        figure = FigureData("f", "t", "nrh", "y", [64])
        figure.add_series("mech", [0.5])
        snap = figure.as_dict()
        assert snap["series"] == {"mech": [0.5]}
        assert snap["x_values"] == [64]
        table = TableData("t", "title", ["a"])
        table.add_row({"a": 1})
        assert table.as_dict()["rows"] == [{"a": 1}]

    def test_table_validates_columns(self):
        table = TableData("t", "title", ["a", "b"])
        table.add_row({"a": 1, "b": 2})
        with pytest.raises(ValueError):
            table.add_row({"a": 1})
        assert table.column("a") == [1]
        assert len(table) == 1


class TestReportRendering:
    def test_render_table(self):
        table = TableData("t", "My Table", ["name", "value"], notes="hello")
        table.add_row({"name": "x", "value": 1.2345})
        text = render_table(table)
        assert "My Table" in text
        assert "1.234" in text
        assert "note: hello" in text

    def test_render_figure(self):
        figure = FigureData("figX", "Title", "nrh", "y", [64, 128])
        figure.add_series("para", [1.0, 2.0])
        text = render_figure(figure)
        assert "figX" in text and "para" in text and "2.000" in text

    def test_render_comparisons(self):
        entries = [ComparisonEntry("fig8", "speedup", "1.9x", "1.4x", True)]
        text = render_comparisons(entries)
        assert "fig8" in text and "yes" in text

    def test_figure_summary(self):
        figure = FigureData("f", "t", "x", "y", [1])
        figure.add_series("s", [3.0])
        assert figure_summary(figure) == {"s": 3.0}


class TestAnalyticalExperiments:
    """Experiments that need no simulation (cheap, exact)."""

    def test_figure5_matches_paper_observations(self, runner):
        figure = runner.figure5()
        assert len(figure.series) == 10
        series_065 = figure.get("TH_outlier=0.65")
        # At 50% attacker threads the bound is ≈ 4.71.
        idx_50 = figure.x_values.index(50)
        assert series_065.values[idx_50] == pytest.approx(4.71, abs=0.05)

    def test_table1_lists_components(self, runner):
        table = runner.table1()
        components = table.column("component")
        assert {"processor", "llc", "dram", "mitigation"} <= set(components)

    def test_table2_has_paper_and_scaled_values(self, runner):
        table = runner.table2()
        params = {row["parameter"]: row for row in table.rows}
        assert params["TH_threat"]["paper_value"] == 32.0
        assert params["TH_outlier"]["paper_value"] == 0.65
        assert params["P_newsuspect"]["paper_value"] == 10

    def test_table3_and_paper_reference(self, runner):
        table = runner.table3()
        assert table.rows[-1]["Workload"] == "Average"
        assert all(row["RBMPKI"] >= 0 for row in table.rows)
        paper = runner.paper_table3()
        assert len(paper) == 8

    def test_hardware_complexity_table(self, runner):
        table = runner.hardware_complexity()
        values = {row["quantity"]: row["value"] for row in table.rows}
        assert values["fits_under_trrd"] is True
        assert values["bits_per_thread"] == 82


class TestSimulationExperiments:
    """Smoke-scale simulated experiments (shared, memoised runner)."""

    def test_run_caching(self, runner):
        before = runner.runs_executed
        runner.run("MMLA", "para", 64, False)
        mid = runner.runs_executed
        runner.run("MMLA", "para", 64, False)
        assert runner.runs_executed == mid == before + 1

    def test_figure2_structure_and_trend(self, runner):
        figure = runner.figure2(mechanisms=["rfm"], mixes=["MMLL"])
        assert figure.x_values == list(runner.spec.nrh_sweep)
        series = figure.get("rfm")
        # Overhead grows (normalised WS falls) as N_RH decreases.
        assert series.values[-1] <= series.values[0] + 0.05

    def test_figure6_and_7_report_geomean(self, runner):
        fig6 = runner.figure6(nrh=64, mixes=["MMLA"], mechanisms=["rfm"])
        assert fig6.x_values[-1] == "geomean"
        assert fig6.get("rfm+BH").values[-1] > 0
        fig7 = runner.figure7(nrh=64, mixes=["MMLA"], mechanisms=["rfm"])
        assert len(fig7.get("rfm+BH").values) == 2

    def test_figure8_contains_baseline_and_bh_series(self, runner):
        figure = runner.figure8(mechanisms=["rfm"], mixes=["MMLA"])
        assert "rfm" in figure.series and "rfm+BH" in figure.series

    def test_figure10_normalised_to_largest_nrh(self, runner):
        figure = runner.figure10(mechanisms=["rfm"], mixes=["MMLA"])
        series = figure.get("rfm")
        assert series.values[0] == pytest.approx(1.0, abs=1e-6) or \
            series.values[0] == 0.0
        # Preventive actions grow as N_RH shrinks.
        assert series.values[-1] >= series.values[0]

    def test_figure10_reference_is_the_largest_nrh_of_an_ascending_sweep(self):
        spec = ExperimentSpec.smoke(nrh_sweep=(64, 1024), mechanisms=("para",))
        with Session(spec, jobs=1, cache_dir="") as session:
            figure = session.figure("fig10")
        para = dict(zip(figure.x_values, figure.get("para").values))
        assert para[1024] == 1.0
        assert para[64] > 1.0

    def test_figure11_latency_curves_monotone(self, runner):
        figure = runner.figure11(nrh=64, mechanisms=["rfm"], mixes=["MMLA"],
                                 points=(50, 90, 100))
        for series in figure.series.values():
            assert series.values == sorted(series.values)

    def test_figure12_energy_normalised(self, runner):
        figure = runner.figure12(mechanisms=["rfm"], mixes=["MMLA"])
        assert all(v > 0 for v in figure.get("rfm").values)

    def test_figure13_benign_ratio_near_one(self, runner):
        figure = runner.figure13(nrh=1024, mixes=["MMLL"], mechanisms=["rfm"])
        geomean = figure.get("rfm+BH").values[-1]
        assert 0.8 <= geomean <= 1.2

    def test_figure18_includes_blockhammer(self, runner):
        figure = runner.figure18(mechanisms=["rfm"], mixes=["MMLA"])
        assert "blockhammer" in figure.series
        assert "rfm+BH" in figure.series

    def test_headline_numbers_structure(self, runner):
        numbers = runner.headline_numbers(nrh=64)
        assert set(numbers) == {"mean_benign_speedup", "mean_energy_ratio",
                                "mean_preventive_action_ratio"}
        assert numbers["mean_benign_speedup"] > 0
