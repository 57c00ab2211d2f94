"""Wall-clock cost of the seed axis: 1/2/4 seeds × 1/2 workers.

A spec with ``seeds=(0, ..., n-1)`` multiplies every sweep-plan grid
point (and every per-trace standalone-IPC baseline) across its seeds, so
a figure's simulation cost grows linearly with the seed count — while
the aggregation fold (:mod:`repro.analysis.aggregate`) stays in-memory
and cheap.  This benchmark times the same fig. 6 sweep at 1, 2, and 4
seeds, serially and on the ``jobs=2`` process pool — a **fresh session
with cold caches per measurement** — so the recorded timings expose both
the linear seed scaling and how much of it the pool claws back.

Correctness of the fold itself is pinned by
``tests/test_seed_statistics.py`` (serial ≡ pool, single-seed
bit-stability); here we only assert the structural invariants — run
counts scale with the seed count and multi-seed figures carry per-cell
statistics — and record the wall-clock.

Measured modes can be overridden via ``REPRO_SEED_SCALING`` (comma-
separated ``SEEDSxJOBS`` pairs, default ``1x1,2x1,4x1,2x2,4x2``).
"""

from __future__ import annotations

import os

import pytest

from repro.api import ExperimentSpec, Session

from conftest import run_once

#: One attack mix, two mechanisms, one low threshold — the smallest grid
#: whose per-seed cost is dominated by simulation, not session setup.
_BASE = dict(
    sim_cycles=4_000,
    entries_per_core=1_500,
    attacker_entries=2_000,
    nrh_sweep=(1024, 64),
    attack_mixes=("MMLA",),
    benign_mixes=("MMLL",),
    mechanisms=("para", "rfm"),
)


def _modes():
    raw = os.environ.get("REPRO_SEED_SCALING", "1x1,2x1,4x1,2x2,4x2")
    modes = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        seeds, _, jobs = part.partition("x")
        modes.append((int(seeds), int(jobs or 1)))
    return modes


#: Per-seed-count serial run counts; the pool must execute exactly as
#: many simulations as the serial path for the same seed count.
_RUNS_BY_SEEDS = {}


def _sweep(n_seeds: int, jobs: int):
    spec = ExperimentSpec(seeds=tuple(range(n_seeds)), **_BASE)
    # cache_dir="" force-disables the disk cache even when REPRO_CACHE_DIR
    # is exported: every measurement must run its full seed batch cold.
    with Session(spec, jobs=jobs, cache_dir="") as session:
        figure = session.figure("fig6", nrh=64)
        return figure, session.runs_executed


@pytest.mark.bench_smoke
@pytest.mark.stats_smoke
@pytest.mark.parametrize(
    "n_seeds,jobs", _modes(),
    ids=[f"seeds{s}-jobs{j}" for s, j in _modes()],
)
def test_seed_scaling(benchmark, n_seeds, jobs):
    figure, runs = run_once(benchmark, _sweep, n_seeds, jobs)
    assert runs > 0
    # The seed axis multiplies the grid: n seeds run exactly n times the
    # single-seed simulation count, on every executor.
    reference = _RUNS_BY_SEEDS.setdefault(n_seeds, runs)
    assert runs == reference
    if 1 in _RUNS_BY_SEEDS:
        assert runs == n_seeds * _RUNS_BY_SEEDS[1]
    for series in figure.series.values():
        if n_seeds == 1:
            assert series.stats is None or not series.stats
        else:
            assert all(cell.n == n_seeds for cell in series.stats)
