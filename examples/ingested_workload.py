#!/usr/bin/env python3
"""Ingest an external memory trace and sweep it like a built-in mix.

Generates a small text trace in the external interchange format
(``<bubble> <L|S> <addr> [flags]``, ``#`` comments, gzip accepted),
ingests it into a workload catalog, and then addresses it from an
:class:`~repro.api.ExperimentSpec` by name — ``"ingest:demo x4"`` sits
in ``benign_mixes`` next to the letter mixes and flows through the same
cache and parallel machinery.  The catalog digest is folded into the
session fingerprint, so re-ingesting a modified trace can never be
served from a stale cache.

Equivalent CLI:

    python -m repro.api workloads ingest demo.trace --name demo \
        --workload-dir ./catalog
    python -m repro.api workloads list --workload-dir ./catalog

Run with:  python examples/ingested_workload.py

Set ``REPRO_EXAMPLE_SCALE=tiny`` for a seconds-scale run (what the
``examples_smoke`` pytest tier and ``python -m repro.api examples`` use).
"""

import dataclasses
import os
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import ExperimentSpec, Session
from repro.workloads.ingest import WORKLOAD_DIR_ENV, WorkloadCatalog

TINY = os.environ.get("REPRO_EXAMPLE_SCALE", "") == "tiny"

TRACE_LINES = 400 if TINY else 5_000


def write_demo_trace(path: Path) -> None:
    """A pointer-chase-flavoured synthetic trace in interchange format."""

    rng = random.Random(11)
    with open(path, "w") as handle:
        handle.write("# demo: synthetic pointer-chase client\n")
        for _ in range(TRACE_LINES):
            op = "S" if rng.random() < 0.25 else "L"
            address = rng.randrange(0, 1 << 28) & ~0x3F
            bubble = rng.randrange(0, 16)
            handle.write(f"{bubble} {op} {address:#x}\n")


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        trace_path = Path(workdir) / "demo.trace"
        write_demo_trace(trace_path)

        catalog = WorkloadCatalog(Path(workdir) / "catalog")
        entry = catalog.ingest(trace_path, name="demo")
        characterization = dict(entry.characterization)
        print(f"ingested {entry.name}: {entry.entries} entries, "
              f"rbmpki {characterization['rbmpki']}, "
              f"digest {entry.trace_digest[:12]}")

        # Spec validation resolves catalog names when the spec is built,
        # so point the environment at the catalog first.
        os.environ[WORKLOAD_DIR_ENV] = str(catalog.directory)
        base = ExperimentSpec.tiny() if TINY else ExperimentSpec.fast()
        spec = dataclasses.replace(
            base, benign_mixes=("MMLL", "ingest:demo x4"))
        print(f"spec fingerprint (catalog digest folded in): "
              f"{spec.fingerprint()[:12]}\n")

        with Session(spec, workload_dir=str(catalog.directory)) as session:
            figure = session.figure("fig13")
        print(f"{figure.title}")
        print(f"  mixes: {', '.join(figure.x_values)}")
        for label, series in figure.series.items():
            cells = "  ".join(f"{value:6.3f}" for value in series.values)
            print(f"  {label:12s} {cells}")
        print("\nThe ingested mix ran through the same sweep path as the "
              "letter mixes;\nits column is the 'ingest:demo x4' entry "
              "above.")


if __name__ == "__main__":
    main()
