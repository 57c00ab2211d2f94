"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload attack_para [--seed 0]
        [--seconds 20] [--trace 0|1]

``--trace 0`` times repetitions of the workload, untraced, for
``--seconds`` and reports the end-to-end metrics.  ``--trace 1`` spends
part of the time on untraced repetitions and the rest on traced ones and
reports the per-layer metrics.  Every repetition's outputs are checked
against the golden digests of the seed (or, for a seed the table does not
pin, against the per-cycle reference engine), and a traced repetition
must reproduce the untraced outputs and counters exactly.  The last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; each run is also appended to ``perfbench/history.jsonl``.
Seed 0 is the default; seed 1 is held out for checking claims.
"""

from __future__ import annotations

import argparse
import datetime
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import env, layers, outputs  # noqa: E402
from perfbench.tracing import Instrumentation, Tracer  # noqa: E402

HISTORY_PATH = Path(__file__).resolve().parent / "history.jsonl"
#: Share of a ``--trace 1`` run given to untraced repetitions.
UNTRACED_SHARE = 0.4

clock = time.perf_counter


class Outcome:
    """Every repetition's output digests, checked once the reference is known.

    Digests are taken as soon as a repetition ends and its outputs are
    dropped, so they do not add to the run's memory high-water mark.
    """

    def __init__(self) -> None:
        self.recorded: List[Tuple[str, Dict[str, str], bool]] = []
        self.crashes = 0
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0

    def record(self, rep, label: str) -> None:
        self.recorded.append((label, rep.digests(), rep.warm_equal))
        rep.outputs.clear()

    def crashed(self, label: str) -> None:
        traceback.print_exc()
        self.crashes += 1
        self.problems.append(f"{label}: raised")

    def verify(self, reference: Dict[str, str]) -> None:
        operations = [op for op in reference if op != "figure"]
        self.attempted = self.failed = self.crashes * len(operations)
        for label, digests, warm_equal in self.recorded:
            for op, value in digests.items():
                if op == "figure":
                    if value != reference.get(op):
                        self.problems.append(f"{label}: figure differs "
                                             "from the reference")
                    continue
                self.attempted += 1
                if value != reference.get(op):
                    self.failed += 1
                    self.problems.append(f"{label}: {op} differs from the "
                                         "reference")
            missing = set(reference) - set(digests)
            if missing:
                self.problems.append(f"{label}: missing {sorted(missing)}")
            if not warm_equal:
                self.problems.append(f"{label}: a warm pass simulated or "
                                     "changed the figure")

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def repeat(run: Callable, deadline: float, outcome: Outcome,
           label: str) -> list:
    """Call ``run(label)`` until ``deadline`` (at least once).

    A repetition that raises is recorded as a crash and ends the loop.
    """

    results = []
    while not results or clock() < deadline:
        name = f"{label} {len(results)}"
        try:
            results.append(run(name))
        except Exception:
            outcome.crashed(name)
            break
    return results


def measure(workload, seconds: float, outcome: Outcome) -> Dict[str, float]:
    def run(label):
        rep = workload.run_once()
        outcome.record(rep, label)
        return rep

    reps = repeat(run, clock() + seconds, outcome, "rep")
    if not reps:
        return dict.fromkeys(layers.END_TO_END, 0.0)
    # Every repetition does identical work, so the spread between them is
    # interference from other processes on the host; the fastest reading
    # is the least disturbed one (see README, "Noise").
    return {
        "wall_s": min(rep.wall_s for rep in reps),
        "setup_s": min(sample for rep in reps for sample in rep.setup_s),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure_traced(workload, seconds: float, outcome: Outcome
                   ) -> Tuple[Dict[str, float], List[Tracer]]:
    """Per-layer metrics, and the tracers of the traced repetitions."""

    def run(label, traced):
        tracer = Tracer(keep=layers.KEPT_GROUPS) if traced else None
        counts = layers.StateCounts()
        with Instrumentation() as instrumentation:
            if traced:
                layers.install_spans(instrumentation, tracer)
            counts.install(instrumentation)
            rep = workload.run_once()
        outcome.record(rep, label)
        return rep, counts.values, tracer

    start = clock()
    plain = repeat(lambda label: run(label, False),
                   start + seconds * UNTRACED_SHARE, outcome, "untraced rep")
    spanned = repeat(lambda label: run(label, True), start + seconds,
                     outcome, "traced rep")
    if not plain or not spanned:
        return dict.fromkeys(layers.PER_LAYER, 0.0), []
    counts = plain[0][1]
    if any(values != counts for _, values, _ in plain + spanned):
        outcome.problems.append("public counters differ between "
                                "repetitions (traced or untraced)")
    tracers = [tracer for _, _, tracer in spanned]
    if any(t.calls != tracers[0].calls or t.counts != tracers[0].counts
           for t in tracers):
        outcome.problems.append("span counts differ between repetitions")
    fastest = min(spanned, key=lambda run: run[0].wall_s)
    return layers.per_layer_metrics(
        fastest[2], counts,
        untraced_wall=min(rep.wall_s for rep, _, _ in plain),
        traced_wall=fastest[0].wall_s,
        warm_s=[sample for rep, _, _ in plain for sample in rep.warm_s],
        runs_executed=plain[0][0].runs_executed,
    ), tracers


def write_spans(workload, tracers) -> None:
    """The kept spans and per-group totals of the traced repetitions."""

    path = env.WORK_DIR / f"spans-{workload.name}-{workload.seed}.jsonl"
    with path.open("w") as handle:
        for rep, tracer in enumerate(tracers):
            for span in tracer.spans:
                handle.write(json.dumps({"rep": rep, **span}) + "\n")
            for group in sorted(tracer.calls):
                handle.write(json.dumps({
                    "rep": rep, "group": group,
                    "calls": tracer.calls[group],
                    "self_s": tracer.self_s[group],
                    "inclusive_s": tracer.inclusive_s[group],
                }) + "\n")


def reference_digests(workload_type, seed: int, engine: str
                      ) -> Dict[str, str]:
    pinned = outputs.golden_digests(workload_type.name, seed, engine)
    if pinned is not None:
        return pinned
    # Seed not pinned: the per-cycle engine is the reference.
    return workload_type(seed, "cycle").reference_digests()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        engine = env.bootstrap()
    except env.MissingProgram as error:
        print(error, file=sys.stderr)
        return 2

    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of "
                     f"{sorted(WORKLOADS)}")
    workload_type = WORKLOADS[args.workload]
    workload = workload_type(args.seed, engine)
    record = {"time": datetime.datetime.now(datetime.timezone.utc)
              .isoformat(timespec="seconds"),
              **env.stamp(engine), "workload": args.workload,
              "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    outcome = Outcome()
    if args.trace:
        values, tracers = measure_traced(workload, args.seconds, outcome)
        write_spans(workload, tracers)
        units = layers.PER_LAYER
    else:
        values = measure(workload, args.seconds, outcome)
        units = layers.END_TO_END
    outcome.verify(reference_digests(workload_type, args.seed, engine))
    for problem in outcome.problems:
        print(problem, file=sys.stderr)
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    with HISTORY_PATH.open("a") as history:
        history.write(json.dumps({**record, **result,
                                  "metrics": values}) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
