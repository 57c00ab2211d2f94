"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures through
the declarative :class:`repro.api.Session` surface.  A
single session-scoped :class:`~repro.api.Session` is shared by all
benchmarks so that simulations common to several figures (e.g. the N_RH
sweep behind Figs. 8, 9, 10 and 12) are executed only once and memoised.

Scale is controlled by the ``REPRO_BENCH_PROFILE`` environment variable:

* ``fast`` (default) — the reduced sweep of ``ExperimentSpec.fast()``,
* ``full``           — the paper's full 7-point N_RH sweep and all six mixes
  (expect a long run),
* ``smoke``          — minimal, for checking the harness itself.

The simulation engine is controlled by ``REPRO_ENGINE``:

* ``fast`` (default) — event-driven fast-forward engine,
* ``cycle``          — the per-cycle reference engine.

Both engines produce identical statistics (asserted by
``tests/test_engine_equivalence.py``); the variable exists so regressions in
either engine can be timed and bisected independently.

Sweep-timing benchmarks additionally persist a machine-readable record,
``benchmarks/results/BENCH_sweep.json`` (one entry per measured sweep:
figure/column, engine, jobs, wall-clock seconds, runs executed),
via :func:`record_sweep`, so engine and executor regressions can be
tracked numerically across invocations instead of eyeballed from
pytest-benchmark tables.

Sweep execution is controlled by two more variables (see ROADMAP.md
"Running sweeps"):

* ``REPRO_JOBS`` — worker-process count for the parallel sweep executor
  (default 1 = serial; parallel sweeps are bit-identical to serial ones,
  asserted by ``tests/test_sweep_executor.py``);
* ``REPRO_CACHE_DIR`` — directory of the persistent on-disk run cache;
  when set, grid points computed by an earlier invocation (or another
  process) are loaded instead of re-simulated.  Entries are namespaced by
  a configuration fingerprint, so changing profile/engine/scale can never
  serve stale results.

The ``bench_smoke`` marker (registered in the repository's ``pytest.ini``)
tags the representative one-point-per-sweep checks (see
``tests/test_bench_smoke.py`` and ``bench_sweep_scaling.py``) that exercise
the parallel path inside tier-1 time budgets: ``pytest -m bench_smoke``.
The sibling ``fuzz_smoke`` marker selects the differential-fuzz corpus
(``tests/test_fuzz_smoke.py``); long fuzzing campaigns run through
``python -m repro.testing.fuzz`` and their throughput is measured by
``bench_fuzz_throughput.py``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.analysis.report import render_figure, render_table  # noqa: E402
from repro.api import ExperimentSpec, Session  # noqa: E402


def _spec() -> ExperimentSpec:
    name = os.environ.get("REPRO_BENCH_PROFILE", "fast").lower()
    if name not in ("full", "smoke"):
        name = "fast"
    # The spec leaves `engine` unpinned, so Session's resolve_execution
    # applies REPRO_ENGINE (and REPRO_JOBS / REPRO_CACHE_DIR) through the
    # one documented precedence chain.
    return ExperimentSpec.profile(name)


@pytest.fixture(scope="session")
def session() -> Session:
    with Session(_spec()) as instance:
        yield instance
    # Session.__exit__ shuts the worker pool down.


_RESULTS_DIR = Path(__file__).resolve().parent / "results"


@pytest.fixture(scope="session")
def emit():
    """Print a reproduced figure/table and persist it under benchmarks/results/.

    The printed form appears in the pytest output when run with ``-s``; the
    persisted text file survives regardless of output capturing, so a plain
    ``pytest benchmarks/ --benchmark-only`` still leaves every reproduced
    series on disk.
    """

    _RESULTS_DIR.mkdir(exist_ok=True)

    def _emit(artifact) -> None:
        if hasattr(artifact, "series"):
            text = render_figure(artifact)
            name = artifact.figure_id
        else:
            text = render_table(artifact)
            name = artifact.table_id
        print()
        print(text)
        (_RESULTS_DIR / f"{name}.txt").write_text(text + "\n",
                                                  encoding="utf-8")

    return _emit


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing."""

    return benchmark.pedantic(func, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


# ---------------------------------------------------------------------- #
# Machine-readable sweep timings
# ---------------------------------------------------------------------- #
_SWEEP_JSON = _RESULTS_DIR / "BENCH_sweep.json"
_SWEEP_RECORDS: list = []


def record_sweep(figure: str, engine: str, jobs, seconds: float,
                 runs: int, **extra) -> None:
    """Append one sweep timing to ``benchmarks/results/BENCH_sweep.json``.

    ``figure`` names what was swept (a figure id or a column label),
    ``engine`` the simulation engine, ``jobs`` the worker-process count,
    ``seconds`` the measured wall-clock, and
    ``runs`` how many grid points actually simulated.  The file is
    rewritten after every record, so partial benchmark runs still leave a
    valid JSON document; each pytest session starts a fresh record list.
    """

    import json
    import time

    _SWEEP_RECORDS.append({
        "figure": figure,
        "engine": engine,
        "jobs": jobs,
        "seconds": round(seconds, 3),
        "runs": runs,
        **extra,
    })
    _RESULTS_DIR.mkdir(exist_ok=True)
    document = {
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "profile": os.environ.get("REPRO_BENCH_PROFILE", "fast"),
        "records": _SWEEP_RECORDS,
    }
    _SWEEP_JSON.write_text(json.dumps(document, indent=2) + "\n",
                           encoding="utf-8")
