"""``python -m repro.cluster worker`` — the standalone worker entry point.

A worker connects to a broker (any number of times, from any host that
can reach it) and serves grid points until the broker stops::

    python -m repro.cluster worker --connect HOST:7777 --jobs 4
    python -m repro.cluster worker --connect unix:/tmp/b.sock

The broker side is the sweep CLI with the cluster backend, which hosts the
broker, streams the spec's figures and spawns ``--workers N`` co-located
workers of its own::

    python -m repro.api run sweep.toml --backend cluster \
        --broker 0.0.0.0:7777 --workers 2

``--jobs N`` starts N independent worker processes — each one its own
connection, its own runner, its own serial simulation loop (pure-Python
simulations only scale across processes).  ``--spec FILE`` pins the spec a
worker is willing to serve: a broker running anything else rejects it at
handshake instead of letting it compute garbage.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from typing import Optional, Sequence

from repro.cluster.worker import (
    CRASH_AFTER_ENV,
    _worker_environment,
    worker_loop,
)
from repro.cluster.protocol import parse_address


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
        description="Distributed sweep fabric: socket workers that serve "
                    "a broker's experiment spec (host the broker with "
                    "python -m repro.api run --backend cluster).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

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
    return _cmd_worker(build_parser().parse_args(argv))
