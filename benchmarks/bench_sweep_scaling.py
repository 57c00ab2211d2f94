"""Wall-clock scaling of the process-pool sweep executor.

Runs the same fig. 6/8-style (mix, mechanism, N_RH, BreakHammer) grid with
1, 2, and 4 process-pool workers — a **fresh session with cold caches per
measurement**, so each timing covers the full grid execution.  On a
multi-core host the recorded wall-clock time shrinks as the worker count
grows (the grid is embarrassingly parallel; speedup is bounded by the
slowest single run plus pool start-up); on a single-core host the timings
degrade gracefully to roughly serial cost plus pool overhead.

Every worker count is bit-identical to serial — asserted here on the
figure aggregates, and in detail by ``tests/test_sweep_executor.py``.

Measured worker counts can be overridden via ``REPRO_SCALING_JOBS``
(comma-separated; default ``1,2,4``).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.api import ExperimentSpec, Session

from conftest import record_sweep, run_once

#: The swept grid: one attack mix, three mechanisms, two thresholds —
#: 12 simulation grid points + the no-mitigation baseline + standalone-IPC
#: baselines, exactly the shape behind Figs. 6 and 8.
_SCALING_SPEC = ExperimentSpec(
    sim_cycles=4_000,
    entries_per_core=1_500,
    attacker_entries=2_000,
    nrh_sweep=(1024, 64),
    attack_mixes=("MMLA",),
    benign_mixes=("MMLL",),
    mechanisms=("para", "graphene", "rfm"),
    seeds=(0,),
)


def _worker_counts():
    raw = os.environ.get("REPRO_SCALING_JOBS", "1,2,4")
    return [int(part) for part in raw.split(",") if part.strip()]


#: Serial reference aggregates, computed once and compared against every
#: parallel measurement (figure equality == bit-identical RunStatistics
#: underneath, since every series value is derived from them).
_REFERENCE = {}


def _sweep(jobs: int):
    # cache_dir="" force-disables the disk cache even when REPRO_CACHE_DIR
    # is exported: every measurement must run the full grid cold.
    with Session(_SCALING_SPEC, jobs=jobs, cache_dir="") as session:
        started = time.perf_counter()
        fig6 = session.figure("fig6", nrh=64)
        fig8 = session.figure("fig8")
        record_sweep(figure="fig6+fig8", engine=session.engine, jobs=jobs,
                     seconds=time.perf_counter() - started,
                     runs=session.runs_executed)
        return fig6, fig8, session.runs_executed


@pytest.mark.bench_smoke
@pytest.mark.parametrize("jobs", _worker_counts())
def test_sweep_scaling(benchmark, jobs):
    fig6, fig8, runs = run_once(benchmark, _sweep, jobs)
    assert runs > 0
    if not _REFERENCE:
        _REFERENCE["fig6"], _REFERENCE["fig8"] = fig6.as_dict(), fig8.as_dict()
    else:
        assert fig6.as_dict() == _REFERENCE["fig6"]
        assert fig8.as_dict() == _REFERENCE["fig8"]
