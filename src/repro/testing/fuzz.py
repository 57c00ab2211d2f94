"""Differential scenario fuzzer for the dual-engine contract.

Every :class:`~repro.testing.scenarios.Scenario` is executed through the
``cycle`` reference driver and the ``fast`` engine; the run is a pass only
when the full :class:`~repro.sim.stats.RunStatistics` and every core's
introspection snapshot are bit-identical.
Harness-shaped scenarios can additionally be executed through the serial
and process-pool sweep executors (``jobs=1`` vs ``jobs>1``), pinning the
second determinism contract.

A failing scenario is minimised by :func:`shrink` — greedily dropping
cores, halving budgets, clearing BreakHammer and mitigation overrides —
until no simpler variant still diverges, and :func:`repro_snippet` renders
the result as a paste-able reproduction (see ROADMAP.md "Validating
engines" for how to bisect one with ``REPRO_ENGINE=cycle``).

Campaign CLI::

    python -m repro.testing.fuzz --seed 0 --count 200 [--budget 600]
        [--profile campaign] [--jobs 2] [--no-shrink]

exits non-zero if any divergence survives, printing the minimised repro.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.simulator import SimulationResult, Simulator
from repro.testing.scenarios import (
    FuzzProfile,
    Scenario,
    build_simulation_config,
    build_system_config,
    build_workload,
    generate_scenarios,
    simplifications,
)

#: The per-core snapshots, compared after the statistics' fields.
_CORES_FIELD = "core_snapshots"


@dataclass
class DifferentialReport:
    """Outcome of one scenario's engine differential run.

    ``mismatched_fields`` names the observables on which the fast engine
    diverged from the cycle reference; ``ticks_fast`` is the fast
    engine's tick count.
    """

    scenario: Scenario
    identical: bool
    mismatched_fields: Tuple[str, ...]
    cycles: int
    ticks_cycle: int
    ticks_fast: int

    @property
    def speedup(self) -> float:
        """Tick-count ratio: how much work the fast engine skipped."""

        return self.ticks_cycle / max(1, self.ticks_fast)

    def summary(self) -> str:
        if self.identical:
            return (f"PASS {self.scenario.label}: {self.cycles} cycles, "
                    f"fast engine ticked {self.ticks_fast}/{self.ticks_cycle}")
        return (f"DIVERGENCE {self.scenario.label}: fields "
                f"{', '.join(self.mismatched_fields)} differ\n"
                + repro_snippet(self.scenario))


def run_scenario(scenario: Scenario, engine: str) -> Tuple[SimulationResult,
                                                           Simulator]:
    """Execute ``scenario`` under ``engine``; fresh state every call."""

    config = build_system_config(scenario)
    mix = build_workload(scenario, config)
    simulator = Simulator(config, mix.traces,
                          build_simulation_config(scenario, engine))
    return simulator.run(), simulator


def _comparable(result: SimulationResult) -> Dict[str, object]:
    snapshot = dataclasses.asdict(result.stats)
    snapshot[_CORES_FIELD] = [core.snapshot() for core in result.system.cores]
    return snapshot


def run_differential(scenario: Scenario) -> DifferentialReport:
    """Diff the fast engine against the cycle reference."""

    cycle_result, cycle_sim = run_scenario(scenario, "cycle")
    fast_result, fast_sim = run_scenario(scenario, "fast")
    reference = _comparable(cycle_result)
    candidate = _comparable(fast_result)
    mismatched = tuple(field for field in reference
                       if reference[field] != candidate[field])
    return DifferentialReport(
        scenario=scenario,
        identical=not mismatched,
        mismatched_fields=mismatched,
        cycles=cycle_result.stats.cycles,
        ticks_cycle=cycle_sim.ticks_executed,
        ticks_fast=fast_sim.ticks_executed,
    )


# ---------------------------------------------------------------------- #
# Serial vs process-pool executor differential
# ---------------------------------------------------------------------- #
def executor_differential(scenarios: Sequence[Scenario],
                          jobs: int = 2) -> List[str]:
    """Check harness-shaped scenarios under ``jobs=1`` vs a process pool.

    Scenarios are grouped by harness shape (cycle budget, trace sizes,
    *seed axis*); each group becomes one (mix, mechanism, nrh, breakhammer)
    grid — multiplied across every seed of the shape's ``Scenario.seeds``
    tuple, so multi-seed scenarios pin the statistical seed axis through
    the pool — described by an :class:`repro.api.ExperimentSpec` and
    executed by a serial :class:`repro.api.Session` against a ``jobs``-process
    one; the parallel side goes through the futures/streaming path,
    pinning it to the same determinism contract.  Returns a list of
    human-readable mismatch descriptions (empty = all identical);
    non-harness-shaped scenarios are skipped.
    """

    from repro.api import ExperimentSpec, RunPoint, Session

    groups: Dict[Tuple[int, int, int, Tuple[int, ...]], List[Scenario]] = {}
    for scenario in scenarios:
        if not scenario.harness_shaped():
            continue
        shape = (scenario.sim_cycles, scenario.entries_per_core,
                 scenario.attacker_entries, scenario.seeds)
        groups.setdefault(shape, []).append(scenario)

    mismatches: List[str] = []
    for (sim_cycles, entries, attacker_entries, seeds), group \
            in groups.items():
        spec = ExperimentSpec.tiny(
            sim_cycles=sim_cycles,
            entries_per_core=entries,
            attacker_entries=attacker_entries,
            seeds=seeds,
            engine="fast",
        )
        points = [RunPoint(s.mix, s.mechanism, s.nrh, s.breakhammer, seed)
                  for s in group for seed in seeds]
        # cache_dir="" keeps both sessions hermetic: never share state
        # through the disk, even under an exported REPRO_CACHE_DIR.
        with Session(spec, jobs=1, cache_dir="") as serial, \
                Session(spec, jobs=jobs, cache_dir="") as parallel:
            # submit_grid returns one handle per *distinct* point; key the
            # lookup so duplicated scenarios compare against their own run.
            handles = dict(zip(dict.fromkeys(points),
                               parallel.submit_grid(points)))
            for scenario in group:
                for seed in seeds:
                    point = RunPoint(scenario.mix, scenario.mechanism,
                                     scenario.nrh, scenario.breakhammer, seed)
                    lhs = serial.run(point.mix, point.mechanism, point.nrh,
                                     point.breakhammer, seed=seed)
                    rhs = handles[point].result()
                    if dataclasses.asdict(lhs) != dataclasses.asdict(rhs):
                        mismatches.append(
                            f"jobs=1 vs jobs={jobs} diverge on "
                            f"{scenario.label} seed={seed}"
                        )
    return mismatches


# ---------------------------------------------------------------------- #
# Shrinking
# ---------------------------------------------------------------------- #
def shrink(scenario: Scenario,
           still_fails: Optional[Callable[[Scenario], bool]] = None,
           max_attempts: int = 200) -> Scenario:
    """Greedily minimise a failing scenario.

    ``still_fails`` decides whether a candidate still reproduces the
    failure (default: the engine differential diverges).  Each accepted
    simplification restarts the candidate sweep, so the result is a local
    minimum: no single simplification keeps it failing.
    """

    if still_fails is None:
        def still_fails(candidate: Scenario) -> bool:
            return not run_differential(candidate).identical

    attempts = 0
    current = scenario
    progressed = True
    while progressed and attempts < max_attempts:
        progressed = False
        for candidate in simplifications(current):
            attempts += 1
            if still_fails(candidate):
                current = candidate
                progressed = True
                break
            if attempts >= max_attempts:
                break
    return current


def repro_snippet(scenario: Scenario) -> str:
    """A paste-able reproduction of one divergent scenario."""

    return (
        "from repro.testing import Scenario, run_differential\n"
        f"scenario = {scenario!r}\n"
        "report = run_differential(scenario)\n"
        "assert report.identical, report.mismatched_fields\n"
        "# Bisect: the cycle engine is the reference; rerun sweeps with\n"
        "# REPRO_ENGINE=cycle to regenerate reference-side figures.\n"
    )


# ---------------------------------------------------------------------- #
# Campaign CLI
# ---------------------------------------------------------------------- #
def _parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.fuzz",
        description="Differential fuzzing campaign over the dual-engine "
                    "simulation contract.",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default 0)")
    parser.add_argument("--count", type=int, default=100,
                        help="scenarios to run (default 100)")
    parser.add_argument("--budget", type=float, default=None,
                        help="wall-clock budget in seconds; the campaign "
                             "stops early when exceeded")
    parser.add_argument("--profile", choices=("smoke", "campaign"),
                        default="smoke",
                        help="sampling ranges: 'smoke' (tier-1 sized runs, "
                             "default) or 'campaign' (longer runs)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="also run harness-shaped scenarios through a "
                             "process pool of this size and diff against "
                             "serial (default 1 = engine differential only)")
    parser.add_argument("--no-shrink", action="store_true",
                        help="report divergences without minimising them")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse_args(argv)
    profile = (FuzzProfile.campaign() if args.profile == "campaign"
               else FuzzProfile.smoke())
    scenarios = generate_scenarios(args.seed, args.count, profile)

    started = time.perf_counter()
    executed: List[Scenario] = []
    failures: List[DifferentialReport] = []
    ticks_cycle = ticks_fast = 0
    for index, scenario in enumerate(scenarios):
        if args.budget is not None \
                and time.perf_counter() - started > args.budget:
            print(f"budget exhausted after {len(executed)}/{len(scenarios)} "
                  "scenarios")
            break
        report = run_differential(scenario)
        executed.append(scenario)
        ticks_cycle += report.ticks_cycle
        ticks_fast += report.ticks_fast
        if not report.identical:
            failures.append(report)
            print(report.summary())
        elif (index + 1) % 10 == 0:
            elapsed = time.perf_counter() - started
            print(f"[{index + 1}/{len(scenarios)}] ok, "
                  f"{(index + 1) / elapsed:.2f} scenarios/s")

    executor_mismatches: List[str] = []
    executor_checked = 0
    if args.jobs > 1 and not failures:
        from repro.testing.scenarios import executor_corpus

        # Random campaigns rarely sample harness-shaped scenarios (the
        # shape is a conjunction of several constraints), so the fixed
        # executor corpus always rides along — the serial-vs-parallel
        # contract is genuinely exercised on every --jobs run.
        candidates = [s for s in executed if s.harness_shaped()]
        candidates.extend(executor_corpus())
        executor_checked = len(candidates)
        executor_mismatches = executor_differential(candidates,
                                                    jobs=args.jobs)
        print(f"executor differential: {executor_checked} harness-shaped "
              f"scenarios under jobs=1 vs jobs={args.jobs}")
        for line in executor_mismatches:
            print(line)

    elapsed = max(1e-9, time.perf_counter() - started)
    executor_note = (
        f"{len(executor_mismatches)} executor divergence(s) "
        f"across {executor_checked} checked"
        if executor_checked
        else "executor differential not run (use --jobs 2)"
    )
    print(f"ran {len(executed)} scenarios in {elapsed:.2f}s "
          f"({len(executed) / elapsed:.2f} scenarios/s); "
          f"fast engine ticked {ticks_fast}/{ticks_cycle} cycles "
          f"({ticks_cycle / max(1, ticks_fast):.2f}x skip factor); "
          f"{len(failures)} engine divergence(s); {executor_note}")

    if failures and not args.no_shrink:
        worst = failures[0]
        print("shrinking first divergence ...")
        minimal = shrink(worst.scenario)
        print("minimal failing scenario:")
        print(repro_snippet(minimal))
    return 1 if failures or executor_mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
