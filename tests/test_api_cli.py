"""The unified ``python -m repro.api`` CLI: spec files, figures, fuzz path."""

from __future__ import annotations

import json

import pytest

from repro.analysis.figures import FigureData
from repro.api import ExperimentSpec, Session
from repro.api.cli import main


SPEC_TOML = (
    'profile = "tiny"\n'
    'figures = ["fig6"]\n'
    '\n'
    '[spec]\n'
    'mechanisms = ["para", "rfm"]\n'
    '\n'
    '[execution]\n'
    'jobs = 1\n'
    'cache_dir = ""\n'
)


@pytest.fixture()
def spec_path(tmp_path):
    path = tmp_path / "sweep.toml"
    path.write_text(SPEC_TOML, encoding="utf-8")
    return path


def test_run_spec_file_produces_reference_figure(spec_path, tmp_path,
                                                 capsys):
    out_dir = tmp_path / "out"
    assert main(["run", str(spec_path), "--out", str(out_dir)]) == 0
    printed = capsys.readouterr().out
    assert "fig6" in printed
    dumped = json.loads((out_dir / "fig6.json").read_text(encoding="utf-8"))
    figure = FigureData.from_dict(dumped)
    spec = ExperimentSpec.tiny(mechanisms=("para", "rfm"))
    with Session(spec, jobs=1, cache_dir="") as session:
        assert figure.as_dict() == session.figure("fig6").as_dict()


def test_run_profile_headline_and_analytical_figure(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["run", "--profile", "tiny", "--figures", "fig5,headline",
                 "--jobs", "1", "--cache-dir", "", "--out",
                 str(out_dir)]) == 0
    assert "fig5" in capsys.readouterr().out
    numbers = json.loads(
        (out_dir / "headline.json").read_text(encoding="utf-8")
    )
    assert numbers["mean_benign_speedup"] > 0


def test_run_cluster_backend_produces_serial_figure(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["run", "--profile", "tiny", "--backend", "cluster",
                 "--workers", "1", "--figures", "fig6", "--cache-dir", "",
                 "--out", str(out_dir)]) == 0
    assert "backend=cluster" in capsys.readouterr().out
    dumped = json.loads((out_dir / "fig6.json").read_text(encoding="utf-8"))
    figure = FigureData.from_dict(dumped)
    with Session(ExperimentSpec.tiny(), jobs=1, cache_dir="") as session:
        assert figure.as_dict() == session.figure("fig6").as_dict()


def test_run_without_spec_or_profile_errors():
    with pytest.raises(SystemExit):
        main(["run"])


def test_unknown_figures_rejected(spec_path):
    with pytest.raises(SystemExit, match="unknown figures"):
        main(["run", str(spec_path), "--figures", "fig99"])


def test_fuzz_subcommand_forwards(capsys):
    assert main(["fuzz", "--seed", "7", "--count", "2"]) == 0
    assert "ran 2 scenarios" in capsys.readouterr().out
