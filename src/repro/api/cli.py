"""The unified ``python -m repro.api`` command line.

One invocation path for sweeps, smoke profiles, fuzz campaigns, workload
ingestion, and the bundled examples::

    python -m repro.api run sweep.toml --jobs 4 --out results/
    python -m repro.api run --profile smoke --figures fig6,fig12
    python -m repro.api fuzz --seed 0 --count 200 --jobs 2
    python -m repro.api examples --scale tiny
    python -m repro.api workloads ingest trace.csv.gz --name gap-bfs
    python -m repro.api workloads list

``run`` loads a declarative :class:`~repro.api.spec.ExperimentSpec` (TOML or
JSON, see :func:`~repro.api.spec.load_spec`) or a named profile, opens a
:class:`~repro.api.session.Session`, streams the requested figures through
the futures path, prints each one, and (with ``--out``) persists the
figure dictionaries as JSON.  Execution flags follow the documented
precedence: CLI flag > spec file ``[execution]`` > ``REPRO_*`` environment.

``fuzz`` forwards to the differential scenario fuzzer
(:mod:`repro.testing.fuzz`), so fuzz campaigns share this entry point.

``examples`` executes every ``examples/*.py`` script in a subprocess at the
requested scale (the scripts honour ``REPRO_EXAMPLE_SCALE``); the
``examples_smoke`` pytest marker drives the same path in CI.

``workloads`` manages the ingested-workload catalog
(:mod:`repro.workloads.ingest`): ``ingest`` imports an external trace
file (text/CSV, gzip-transparent), ``list`` shows every catalogued
workload with its characterization summary, ``verify`` checks entry
integrity (CRC frames, digests, entry counts), and ``drop`` removes one.
The catalog root is ``--workload-dir`` or ``REPRO_WORKLOAD_DIR``;
catalogued names are spec-addressable as ``"ingest:<name> x4"`` mixes.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.experiments import FIGURES
from repro.analysis.report import render_figure
from repro.api.session import Session
from repro.api.spec import ExperimentSpec, SpecFile, load_spec
from repro.sim.config import SIMULATION_ENGINES

#: Figures the ``run`` subcommand computes when none are selected.
DEFAULT_FIGURES = ("fig2", "fig6", "fig7", "fig8")

#: Environment variable the bundled examples read their scale from.
EXAMPLE_SCALE_ENV = "REPRO_EXAMPLE_SCALE"


def _parse_figures(raw: Optional[str], fallback: Sequence[str]) -> List[str]:
    names = ([part.strip() for part in raw.split(",") if part.strip()]
             if raw else list(fallback))
    unknown = sorted(set(names) - set(FIGURES) - {"headline"})
    if unknown:
        raise SystemExit(
            f"unknown figures: {', '.join(unknown)} "
            f"(known: {', '.join(sorted(FIGURES))}, headline)"
        )
    return names


def _cmd_run(args: argparse.Namespace) -> int:
    if args.spec is not None:
        spec_file = load_spec(args.spec)
    elif args.profile is not None:
        spec_file = SpecFile(spec=ExperimentSpec.profile(args.profile))
    else:
        raise SystemExit("run: need a spec file or --profile")
    figures = _parse_figures(args.figures, spec_file.figures
                             or DEFAULT_FIGURES)
    jobs = args.jobs if args.jobs is not None else spec_file.jobs
    cache_dir = (args.cache_dir if args.cache_dir is not None
                 else spec_file.cache_dir)
    out_dir = Path(args.out) if args.out else None
    with Session(spec_file.spec, jobs=jobs, cache_dir=cache_dir,
                 engine=args.engine) as session:
        print(f"spec fingerprint {session.fingerprint} | "
              f"engine={session.engine} jobs={session.jobs} "
              f"cache={'on' if session.cache else 'off'}")
        # The statistics line appears only for multi-seed specs: a
        # single-seed run's textual output stays byte-identical to the
        # pre-statistics CLI for existing consumers.
        if len(session.spec.seeds) > 1:
            seeds = ",".join(str(seed) for seed in session.spec.seeds)
            print(f"seeds [{seeds}] | figure cells report mean ± 95% CI "
                  f"over {len(session.spec.seeds)} seeds")
        wanted = [f for f in figures if f != "headline"]
        results = session.figures(wanted)
        for figure_id in wanted:
            figure = results[figure_id]
            print()
            print(render_figure(figure))
            if out_dir is not None:
                out_dir.mkdir(parents=True, exist_ok=True)
                path = out_dir / f"{figure_id}.json"
                path.write_text(
                    json.dumps(figure.as_dict(), indent=2) + "\n",
                    encoding="utf-8",
                )
        if "headline" in figures:
            numbers = session.headline_numbers()
            print()
            for key, value in numbers.items():
                print(f"{key}: {value:.4f}")
            if out_dir is not None:
                (out_dir / "headline.json").write_text(
                    json.dumps(numbers, indent=2) + "\n", encoding="utf-8"
                )
        print(f"\n{session.runs_executed} simulation(s) executed"
              + (f"; cache {session.cache.stats()}" if session.cache else ""))
    return 0


def _cmd_fuzz(extra: Sequence[str]) -> int:
    from repro.testing.fuzz import main as fuzz_main

    return fuzz_main(list(extra))


def _examples_dir() -> Path:
    # repo/src/repro/api/cli.py -> repo/examples
    return Path(__file__).resolve().parents[3] / "examples"


def run_examples(scale: str = "tiny",
                 examples_dir: Optional[Path] = None) -> int:
    """Execute every ``examples/*.py`` at ``scale``; non-zero on failure."""

    directory = examples_dir or _examples_dir()
    scripts = sorted(directory.glob("*.py"))
    if not scripts:
        print(f"no example scripts under {directory}", file=sys.stderr)
        return 1
    env = dict(os.environ, **{EXAMPLE_SCALE_ENV: scale})
    # Examples resolve src/ relative to their own location; a copy run
    # from elsewhere (or an uninstalled checkout) still needs the
    # package importable in the subprocess.
    src_dir = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src_dir, env.get("PYTHONPATH")) if part)
    failures = 0
    for script in scripts:
        print(f"== {script.name} (scale={scale}) ==", flush=True)
        proc = subprocess.run([sys.executable, str(script)], env=env)
        if proc.returncode != 0:
            failures += 1
            print(f"{script.name}: exit {proc.returncode}", file=sys.stderr)
    print(f"{len(scripts) - failures}/{len(scripts)} examples succeeded")
    return 1 if failures else 0


def _cmd_examples(args: argparse.Namespace) -> int:
    return run_examples(scale=args.scale)


def _resolve_catalog(args: argparse.Namespace):
    from repro.workloads.ingest import WORKLOAD_DIR_ENV, WorkloadCatalog

    catalog = WorkloadCatalog.resolve(args.workload_dir)
    if catalog is None:
        raise SystemExit(
            f"workloads {args.workloads_command}: no catalog configured; "
            f"pass --workload-dir or set {WORKLOAD_DIR_ENV}"
        )
    return catalog


def _cmd_workloads(args: argparse.Namespace) -> int:
    from repro.workloads.ingest import CatalogError, IngestError

    catalog = _resolve_catalog(args)
    command = args.workloads_command
    try:
        if command == "ingest":
            entry = catalog.ingest(args.file, name=args.name,
                                   format=args.format)
            character = dict(entry.characterization)
            print(f"ingested {entry.name}: {entry.entries} entries "
                  f"({entry.format}), rbmpki {character.get('rbmpki')}, "
                  f"digest {entry.trace_digest[:12]}")
            print(f"spec-addressable as mix 'ingest:{entry.name} x4'")
            return 0
        if command == "list":
            names = catalog.names()
            if not names:
                print(f"no ingested workloads in {catalog.directory}")
                return 0
            for name in names:
                entry = catalog.entry(name)
                character = dict(entry.characterization)
                print(f"{entry.name}: {entry.entries} entries "
                      f"({entry.format}), rbmpki "
                      f"{character.get('rbmpki')}, digest "
                      f"{entry.trace_digest[:12]}")
            return 0
        if command == "verify":
            names = args.names or catalog.names()
            if not names:
                print(f"no ingested workloads in {catalog.directory}")
                return 0
            failures = 0
            for name in names:
                problems = catalog.verify(name)
                if problems:
                    failures += 1
                    for problem in problems:
                        print(f"{name}: {problem}")
                else:
                    print(f"{name}: ok")
            return 1 if failures else 0
        if command == "drop":
            if not catalog.drop(args.name):
                print(f"no ingested workload {args.name!r} in "
                      f"{catalog.directory}", file=sys.stderr)
                return 1
            print(f"dropped {args.name}")
            return 0
    except (CatalogError, IngestError, OSError) as exc:
        print(f"workloads {command}: {exc}", file=sys.stderr)
        return 1
    raise SystemExit(f"unknown workloads command {command!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.api",
        description="Declarative experiment API: sweeps, smoke profiles, "
                    "fuzz campaigns, and examples share this entry point.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an experiment spec")
    run.add_argument("spec", nargs="?", default=None,
                     help="path to a .toml or .json ExperimentSpec file")
    run.add_argument("--profile", choices=("full", "fast", "smoke", "tiny"),
                     help="use a named profile instead of a spec file")
    run.add_argument("--figures", default=None,
                     help="comma-separated figure ids (default: the spec "
                          "file's list, else fig2,fig6,fig7,fig8); "
                          "'headline' selects the headline numbers")
    run.add_argument("--jobs", type=int, default=None,
                     help="worker processes (beats [execution] and "
                          "REPRO_JOBS)")
    run.add_argument("--cache-dir", default=None,
                     help="persistent run-cache directory ('' disables; "
                          "beats [execution] and REPRO_CACHE_DIR)")
    run.add_argument("--engine", choices=SIMULATION_ENGINES, default=None,
                     help="simulation engine (beats the spec and "
                          "REPRO_ENGINE)")
    run.add_argument("--out", default=None,
                     help="directory for per-figure JSON dumps")

    # Help-only stub: main() short-circuits `fuzz` before parse_args so
    # the fuzzer's own argparse sees its flags verbatim; do not add
    # options here, they would never be parsed.
    sub.add_parser(
        "fuzz", add_help=False,
        help="differential fuzz campaign (forwards every following "
             "argument to repro.testing.fuzz)",
    )

    examples = sub.add_parser("examples",
                              help="run every examples/*.py script")
    examples.add_argument("--scale", default="tiny",
                          choices=("tiny", "default"),
                          help="example scale via REPRO_EXAMPLE_SCALE "
                               "(default: tiny)")

    workloads = sub.add_parser(
        "workloads", help="manage the ingested-workload catalog")
    wsub = workloads.add_subparsers(dest="workloads_command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--workload-dir", default=None,
                        help="catalog directory (beats REPRO_WORKLOAD_DIR)")
    ingest = wsub.add_parser(
        "ingest", parents=[common],
        help="import an external trace file into the catalog")
    ingest.add_argument("file", help="trace file (text or CSV, optionally "
                                     "gzip-compressed)")
    ingest.add_argument("--name", default=None,
                        help="catalog name (default: the file stem)")
    ingest.add_argument("--format", choices=("text", "csv"), default=None,
                        help="input format (default: inferred from the "
                             "file name)")
    wsub.add_parser("list", parents=[common],
                    help="list every catalogued workload")
    verify = wsub.add_parser(
        "verify", parents=[common],
        help="check catalog entry integrity (frames, digests, counts)")
    verify.add_argument("names", nargs="*",
                        help="workloads to verify (default: all)")
    drop = wsub.add_parser("drop", parents=[common],
                           help="remove one catalogued workload")
    drop.add_argument("name", help="workload to remove")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "fuzz":
        # Forward everything after `fuzz` verbatim to the fuzzer CLI.
        return _cmd_fuzz(argv[1:])
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "examples":
        return _cmd_examples(args)
    if args.command == "workloads":
        return _cmd_workloads(args)
    raise SystemExit(f"unknown command {args.command!r}")
