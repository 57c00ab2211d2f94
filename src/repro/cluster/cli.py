"""``python -m repro.cluster`` — standalone broker and worker entry points.

The broker side executes a declarative experiment spec with the cluster
backend, listening for workers while it streams figures::

    python -m repro.cluster broker sweep.toml --listen 0.0.0.0:7777 \
        --cache-dir ~/.cache/repro --figures fig6,fig8
    python -m repro.cluster broker --profile smoke --listen unix:/tmp/b.sock \
        --workers 2                      # self-contained: spawns 2 locally

The worker side connects to a broker (any number of times, from any host
that can reach it) and serves grid points until released::

    python -m repro.cluster worker --connect HOST:7777 --jobs 4
    python -m repro.cluster worker --connect unix:/tmp/b.sock

``--jobs N`` starts N independent worker processes — each one its own
connection, its own runner, its own serial simulation loop (pure-Python
simulations only scale across processes).  ``--spec FILE`` pins the spec a
worker is willing to serve: a broker running anything else rejects it at
handshake instead of letting it compute garbage.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.cluster.worker import (
    CRASH_AFTER_ENV,
    _worker_environment,
    worker_loop,
)
from repro.cluster.protocol import parse_address
from repro.sim.config import SIMULATION_ENGINES


def _cmd_broker(args: argparse.Namespace) -> int:
    from repro.analysis.report import render_figure
    from repro.api.cli import _parse_figures, DEFAULT_FIGURES
    from repro.api.session import Session
    from repro.api.spec import ExperimentSpec, SpecFile, load_spec
    from repro.cluster import cluster_broker

    if args.spec is not None:
        spec_file = load_spec(args.spec)
    elif args.profile is not None:
        spec_file = SpecFile(spec=ExperimentSpec.profile(args.profile))
    else:
        raise SystemExit("broker: need a spec file or --profile")
    figures = _parse_figures(args.figures,
                             spec_file.figures or DEFAULT_FIGURES)
    cache_dir = (args.cache_dir if args.cache_dir is not None
                 else spec_file.cache_dir)
    out_dir = Path(args.out) if args.out else None
    with Session(spec_file.spec, cache_dir=cache_dir, engine=args.engine,
                 backend="cluster", broker=args.listen,
                 workers=args.workers) as session:
        broker = cluster_broker(session)
        print(f"broker listening on {broker.address} | "
              f"fingerprint {session.fingerprint} | "
              f"cache={'on' if session.cache else 'off'} | "
              f"connect workers with: python -m repro.cluster worker "
              f"--connect {broker.address}", flush=True)
        if args.wait_workers:
            broker.wait_for_workers(args.wait_workers)
        wanted = [f for f in figures if f != "headline"]
        results = session.figures(wanted)
        for figure_id in wanted:
            figure = results[figure_id]
            print()
            print(render_figure(figure))
            if out_dir is not None:
                out_dir.mkdir(parents=True, exist_ok=True)
                (out_dir / f"{figure_id}.json").write_text(
                    json.dumps(figure.as_dict(), indent=2) + "\n",
                    encoding="utf-8",
                )
        if "headline" in figures:
            numbers = session.headline_numbers()
            print()
            for key, value in numbers.items():
                print(f"{key}: {value:.4f}")
        print(f"\n{session.runs_executed} simulation(s) executed by "
              f"{broker.workers_seen} worker connection(s); "
              f"{broker.requeued_points} point(s) requeued, "
              f"{broker.workers_rejected} worker(s) rejected, "
              f"{broker.autoscale_events} autoscale event(s)"
              + (f"; cache {session.cache.stats()}" if session.cache else ""))
    return 0


def _worker_fingerprint(spec_path: str) -> str:
    """The fingerprint of the spec a ``--spec`` worker pins itself to."""

    from repro.api.session import resolve_engine
    from repro.api.spec import load_spec

    spec = load_spec(spec_path).spec
    return spec.resolved(resolve_engine(spec.engine)).fingerprint()


def _cmd_worker(args: argparse.Namespace) -> int:
    address = parse_address(args.connect)
    fingerprint: Optional[str] = (
        _worker_fingerprint(args.spec) if args.spec else None
    )
    crash_after_env = os.environ.get(CRASH_AFTER_ENV, "").strip()
    crash_after = int(crash_after_env) if crash_after_env else None
    if args.jobs <= 1:
        return worker_loop(address, spec_fingerprint=fingerprint,
                           crash_after=crash_after)
    # N independent worker processes, each its own connection + runner.
    command = [sys.executable, "-m", "repro.cluster", "worker",
               "--connect", str(address), "--jobs", "1"]
    if args.spec:
        command += ["--spec", args.spec]
    children = [subprocess.Popen(command, env=_worker_environment())
                for _ in range(args.jobs)]
    return max((child.wait() for child in children), default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="Distributed sweep fabric: a broker that executes an "
                    "experiment spec, and socket workers that serve it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    broker = sub.add_parser("broker",
                            help="host a spec's work queue and stream its "
                                 "figures")
    broker.add_argument("spec", nargs="?", default=None,
                        help="path to a .toml or .json ExperimentSpec file")
    broker.add_argument("--profile",
                        choices=("full", "fast", "smoke", "tiny"),
                        help="use a named profile instead of a spec file")
    broker.add_argument("--listen", default=None,
                        help="listen address: HOST:PORT (0 = ephemeral) or "
                             "unix:/path (default: 127.0.0.1 ephemeral)")
    broker.add_argument("--figures", default=None,
                        help="comma-separated figure ids (default: the spec "
                             "file's list, else fig2,fig6,fig7,fig8)")
    broker.add_argument("--workers", type=int, default=0,
                        help="also spawn N co-located worker processes")
    broker.add_argument("--wait-workers", type=int, default=0,
                        help="block until N workers connected before "
                             "sweeping")
    broker.add_argument("--cache-dir", default=None,
                        help="shared persistent run-cache directory "
                             "(results are written through as they arrive; "
                             "a resumed broker skips completed points)")
    broker.add_argument("--engine", choices=SIMULATION_ENGINES,
                        default=None,
                        help="simulation engine (beats spec and "
                             "REPRO_ENGINE)")
    broker.add_argument("--out", default=None,
                        help="directory for per-figure JSON dumps")

    worker = sub.add_parser("worker", help="serve grid points to a broker")
    worker.add_argument("--connect", required=True,
                        help="broker address: HOST:PORT or unix:/path")
    worker.add_argument("--jobs", type=int, default=1,
                        help="worker processes to run (each its own "
                             "connection; default 1)")
    worker.add_argument("--spec", default=None,
                        help="pin the spec this worker serves; a broker "
                             "running a different spec rejects it at "
                             "handshake")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "broker":
        return _cmd_broker(args)
    if args.command == "worker":
        return _cmd_worker(args)
    raise SystemExit(f"unknown command {args.command!r}")
