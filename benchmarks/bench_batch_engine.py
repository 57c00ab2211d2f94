"""Batch engine vs serial fast vs cycle on one N_RH column.

The lockstep batch engine's value proposition: an N_RH column — the sweep
shape behind Figs. 8/9/10/12, here (HHMA, graphene) × N_RH × BreakHammer,
eight grid points — executed as **one** multi-lane
:class:`repro.sim.batch.BatchSimulator` run, with the vectorised
FR-FCFS+Cap scan computing all lanes' scheduling decisions as one array
program per global cycle, versus the same eight points run back-to-back
under the serial ``fast`` engine, versus the per-cycle ``cycle``
reference (timed on a two-point subset: it is an order of magnitude
slower and its cost is linear in the points).

Honest numbers: the batch engine is bit-identical by construction
(predictions are validated against live controller state before being
consumed), which bounds its speedup — most of a saturated column's
runtime is per-lane tick work (cores, LLC, controller bookkeeping) that
batching cannot share.  Against the per-bank scalar scan, serial fast
and batch are about even at smoke scale (fast/batch 0.93–1.05x on a
2-core host), not multiples.  The cycle comparison shows the combined
effect: batch ≈ fast ≈ 10–30x over the reference.

Timings land in ``benchmarks/results/BENCH_sweep.json`` (see
``conftest.record_sweep``); bit-identity of every lane against solo fast
runs is asserted here and generatively by ``tests/test_fuzz_smoke.py``.
"""

from __future__ import annotations

import dataclasses
import os
import time

import pytest

from repro.sim.batch import BatchSimulator
from repro.sim.config import SimulationConfig, SystemConfig
from repro.sim.simulator import Simulator
from repro.workloads.attacker import AttackerConfig
from repro.workloads.mixes import make_mix

from conftest import record_sweep, run_once

_MIX = "HHMA"
_MECHANISM = "graphene"
_NRH_COLUMN = (4096, 1024, 256, 64)
_COLUMN_ID = f"{_MIX}-{_MECHANISM}-nrh-column"


def _scale():
    profile = os.environ.get("REPRO_BENCH_PROFILE", "fast").lower()
    if profile == "smoke":
        return dict(sim_cycles=3_000, entries=1_200, attacker=1_600)
    if profile == "full":
        return dict(sim_cycles=24_000, entries=8_000, attacker=12_000)
    return dict(sim_cycles=12_000, entries=4_000, attacker=6_000)


def _column_simulators(engine: str):
    """Fresh simulators for the eight-point column, in grid order."""

    scale = _scale()
    base = SystemConfig.fast_profile(sim_cycles=scale["sim_cycles"])
    mix = make_mix(
        _MIX, device=base.device, mapping=base.mapping,
        entries_per_core=scale["entries"],
        attacker_entries=scale["attacker"], seed=0,
        attacker_config=AttackerConfig(entries=scale["attacker"], seed=0),
    )
    simulators = []
    for nrh in _NRH_COLUMN:
        for breakhammer in (False, True):
            config = base.with_(mitigation=_MECHANISM, nrh=nrh,
                                breakhammer_enabled=breakhammer)
            simulators.append(Simulator(
                config, mix.traces,
                SimulationConfig(max_cycles=scale["sim_cycles"],
                                 engine=engine),
                attacker_threads=mix.attacker_threads,
            ))
    return simulators


def _timed(func):
    started = time.perf_counter()
    value = func()
    return value, time.perf_counter() - started


#: Serial-fast reference results, shared by the identity assertions.
_FAST_STATS: list = []


@pytest.mark.bench_smoke
def test_column_serial_fast(benchmark):
    def sweep():
        sims = _column_simulators("fast")
        (results, seconds) = _timed(lambda: [s.run() for s in sims])
        record_sweep(figure=_COLUMN_ID, engine="fast", jobs=1,
                     seconds=seconds, runs=len(results))
        _FAST_STATS.clear()
        _FAST_STATS.extend(dataclasses.asdict(r.stats) for r in results)
        return len(results)

    assert run_once(benchmark, sweep) == 2 * len(_NRH_COLUMN)


@pytest.mark.bench_smoke
def test_column_batch(benchmark):
    def sweep():
        sims = _column_simulators("fast")  # BatchSimulator drives directly
        batch = BatchSimulator(sims)
        (results, seconds) = _timed(batch.run)
        scan = batch.scan_stats()
        record_sweep(figure=_COLUMN_ID, engine="batch", jobs=1,
                     seconds=seconds, runs=len(results),
                     eligible_lanes=scan["eligible_lanes"],
                     predictions_used=scan["predictions_used"],
                     mispredictions=scan["mispredictions"])
        return results, scan

    results, scan = run_once(benchmark, sweep)
    # The vectorised scan really drove the lanes, and never mispredicted
    # (mispredictions would silently fall back to the scalar scan).
    assert scan["eligible_lanes"] == len(results)
    assert scan["predictions_used"] > 0
    assert scan["mispredictions"] == 0
    # Bit-identical to the serial fast column, lane for lane.
    if _FAST_STATS:  # populated when the fast benchmark ran first
        batch_stats = [dataclasses.asdict(r.stats) for r in results]
        assert batch_stats == _FAST_STATS


@pytest.mark.bench_smoke
def test_column_cycle_reference_subset(benchmark):
    def sweep():
        # First and last column points only: the reference engine costs
        # ~sim_cycles ticks per run, so the full column would dominate
        # the whole benchmark suite's wall-clock.
        sims = _column_simulators("cycle")
        subset = [sims[0], sims[-1]]
        (results, seconds) = _timed(lambda: [s.run() for s in subset])
        record_sweep(figure=_COLUMN_ID, engine="cycle", jobs=1,
                     seconds=seconds, runs=len(results),
                     note="2-point subset of the 8-point column")
        return len(results)

    assert run_once(benchmark, sweep) == 2
