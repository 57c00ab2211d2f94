"""The unified ``python -m repro.api`` command line.

One invocation path for sweeps, smoke profiles, fuzz campaigns, and the
bundled examples::

    python -m repro.api run sweep.toml --jobs 4 --out results/
    python -m repro.api run --profile smoke --figures fig6,fig12
    python -m repro.api fuzz --seed 0 --count 200 --jobs 2
    python -m repro.api examples --scale tiny

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
    raise SystemExit(f"unknown command {args.command!r}")
