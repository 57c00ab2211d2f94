"""``python -m repro.service`` — run the experiment server.

Examples::

    # Local process-pool execution, figures cached for 10 minutes:
    python -m repro.service --listen 0.0.0.0:8080 --jobs 4 --ttl 600 \
        --cache-dir ~/.cache/repro

    # Serve sweeps through the cluster fabric (the session hosts the
    # broker; point remote workers at the printed broker address):
    python -m repro.service --listen 0.0.0.0:8080 --backend cluster \
        --broker 0.0.0.0:7777 --workers 2 --cache-dir ~/.cache/repro

    # Pre-register specs so the first client request is already hot:
    python -m repro.service --listen 127.0.0.1:8080 --spec sweep.toml

Quota knobs come from ``REPRO_SERVICE_RATE`` / ``REPRO_SERVICE_BURST`` /
``REPRO_SERVICE_MAX_OUTSTANDING`` (or the corresponding flags below);
see ROADMAP.md "Serving figures".
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.api.spec import load_spec
from repro.service.quotas import QuotaPolicy
from repro.service.server import ExperimentService, make_server
from repro.sim.config import SIMULATION_ENGINES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Always-on experiment server: POST specs, GET figures.",
    )
    parser.add_argument("--listen", default="127.0.0.1:8080",
                        metavar="HOST:PORT",
                        help="HTTP listen address (default %(default)s; "
                             "port 0 picks an ephemeral port)")
    parser.add_argument("--spec", action="append", default=[],
                        metavar="FILE",
                        help="pre-register a spec file (repeatable)")
    parser.add_argument("--ttl", type=float, default=None, metavar="S",
                        help="figure-cache TTL seconds "
                             "(default REPRO_SERVICE_TTL or 300)")
    parser.add_argument("--max-entries", type=int, default=None,
                        help="figure-cache capacity "
                             "(default REPRO_SERVICE_MAX_ENTRIES or 256)")
    parser.add_argument("--max-sessions", type=int, default=None,
                        help="most hosted specs "
                             "(default REPRO_SERVICE_MAX_SESSIONS or 8)")
    parser.add_argument("--rate", type=float, default=None,
                        help="quota refill: predicted compute-seconds per "
                             "second per client")
    parser.add_argument("--burst", type=float, default=None,
                        help="quota bucket capacity in compute-seconds")
    parser.add_argument("--max-outstanding", type=int, default=None,
                        help="most in-flight jobs per client")
    execution = parser.add_argument_group("execution (applies to every "
                                          "hosted session)")
    execution.add_argument("--jobs", type=int, default=None,
                           help="local worker processes per session")
    execution.add_argument("--engine", choices=SIMULATION_ENGINES,
                           default=None,
                           help="pin the simulation engine")
    execution.add_argument("--cache-dir", default=None,
                           help="persistent run-cache root")
    execution.add_argument("--backend", default=None,
                           choices=("local", "cluster"),
                           help="sweep fabric (default: REPRO_BACKEND or "
                                "local)")
    execution.add_argument("--broker", default=None, metavar="HOST:PORT",
                           help="cluster broker listen address "
                                "(first session only)")
    execution.add_argument("--workers", type=int, default=None,
                           help="co-located cluster workers per session")
    parser.add_argument("--verbose", action="store_true",
                        help="log every HTTP request to stderr")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    quota_overrides = {
        name: value for name, value in (
            ("rate", args.rate),
            ("burst", args.burst),
            ("max_outstanding", args.max_outstanding),
        ) if value is not None
    }
    service = ExperimentService(
        jobs=args.jobs,
        engine=args.engine,
        cache_dir=args.cache_dir,
        backend=args.backend,
        broker=args.broker,
        workers=args.workers,
        ttl=args.ttl,
        max_entries=args.max_entries,
        max_sessions=args.max_sessions,
        policy=QuotaPolicy.from_env(**quota_overrides),
    )
    try:
        for path in args.spec:
            fingerprint, created = service.register_spec(load_spec(path).spec)
            print(f"registered {path}: fingerprint {fingerprint}"
                  f"{'' if created else ' (already hosted)'}", flush=True)
        server = make_server(service, args.listen)
        server.verbose = args.verbose  # type: ignore[attr-defined]
        host, port = server.server_address[:2]
        print(f"repro.service listening on http://{host}:{port} | "
              f"ttl={service.figure_cache.ttl:g}s | "
              f"quota rate={service.quotas.policy.rate:g}s/s "
              f"burst={service.quotas.policy.burst:g}s | "
              f"try: curl http://{host}:{port}/healthz", flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("shutting down", file=sys.stderr)
        finally:
            server.server_close()
    finally:
        service.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
