#!/usr/bin/env python3
"""Distributed sweep: a broker and two socket workers on this machine.

Opens a ``Session(backend="cluster")`` — which hosts a broker on a Unix
domain socket and spawns a fixed fleet of two local worker processes,
each building the spec's traces itself — then streams a figure sweep
through it and verifies the result is bit-identical to the serial path.

The same broker can serve workers on *other* hosts: point it at a TCP
address and start workers wherever the code is installed::

    python -m repro.api run sweep.toml --backend cluster --broker 0.0.0.0:7777
    python -m repro.cluster worker --connect BROKER_HOST:7777 --jobs 8

Fault tolerance is part of the contract, not an accident: a worker that
dies mid-point has its point requeued, a worker running a stale spec is
rejected at handshake, and results are written through the persistent run
cache so a restarted broker resumes instead of recomputing.

Run with:  python examples/distributed_sweep.py
(or, like every example:  python -m repro.api examples)

Set ``REPRO_EXAMPLE_SCALE=tiny`` for a seconds-scale run (what the
``examples_smoke`` pytest tier and ``python -m repro.api examples`` use).
"""

import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import ExperimentSpec, Session
from repro.cluster import cluster_broker

TINY = os.environ.get("REPRO_EXAMPLE_SCALE", "") == "tiny"

WORKERS = 2
FIGURE = "fig6"
NRH = 64


def main() -> None:
    spec = ExperimentSpec.tiny() if TINY else ExperimentSpec.fast()

    print(f"== serial reference ({FIGURE}, nrh={NRH}) ==")
    with Session(spec, jobs=1, cache_dir="") as serial:
        reference = serial.figure(FIGURE, nrh=NRH)
        print(f"   {serial.runs_executed} simulation(s) in-process")

    with tempfile.TemporaryDirectory(prefix="repro-cluster-") as scratch:
        endpoint = f"unix:{Path(scratch) / 'broker.sock'}"
        print(f"== cluster sweep: broker on {endpoint}, "
              f"{WORKERS} socket workers ==")
        with Session(spec, backend="cluster", broker=endpoint,
                     workers=WORKERS, cache_dir="") as cluster:
            # workers=WORKERS is a fixed fleet: both workers start with
            # the session, and the session replaces one that dies while
            # points are pending.
            broker = cluster_broker(cluster)
            print(f"   fingerprint {cluster.fingerprint}")
            figure = cluster.figure(FIGURE, nrh=NRH)
            print(f"   {broker.results_received} point(s) computed by "
                  f"{broker.workers_seen} worker connection(s); "
                  f"{broker.requeued_points} requeued")

    identical = figure.as_dict() == reference.as_dict()
    print(f"cluster == serial: {identical}")
    if not identical:
        raise SystemExit("cluster sweep diverged from the serial path")
    for label, series in figure.series.items():
        values = ", ".join(f"{value:.3f}" for value in series.values)
        print(f"   {label:>14}: {values}")


if __name__ == "__main__":
    main()
