"""Canonical digests of the program's outputs, and the golden table.

An operation's canonical output is ``dataclasses.asdict`` of its result
(``RunStatistics`` for a grid point, ``AloneResult`` for a standalone
baseline inside a figure sweep) and ``FigureData.as_dict()`` for a
figure.  :func:`digest` hashes an encoding of that value that does not
depend on dict insertion order and keeps the types JSON would merge
(``1`` vs ``"1"`` keys, ``1`` vs ``1.0``); floats are encoded exactly.

``golden.json`` pins the digest of every operation of every workload for
a range of seeds, as computed by the default engine at the commit that
wrote it and checked there against the per-cycle reference engine.  A
seed outside the table is checked against the reference engine at run
time instead.  Regenerate the table (only when outputs are meant to
change) with::

    python3 perfbench/outputs.py --seeds 0-31
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from pathlib import Path
from typing import Dict, Optional

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def canonical(value) -> str:
    """An order-independent, type-preserving text encoding of ``value``."""

    if value is None:
        return "n"
    if isinstance(value, bool):
        return "T" if value else "F"
    if isinstance(value, enum.Enum):
        return f"e{type(value).__name__}:{canonical(value.value)}"
    if isinstance(value, int):
        return f"i{value}"
    if isinstance(value, float):
        return f"f{value!r}"
    if isinstance(value, str):
        return "s" + json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical(item) for item in value) + "]"
    if isinstance(value, dict):
        items = sorted(f"{canonical(key)}:{canonical(item)}"
                       for key, item in value.items())
        return "{" + ",".join(items) + "}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return f"d{type(value).__name__}" + canonical(dataclasses.asdict(value))
    raise TypeError(f"no canonical encoding for {type(value).__name__}")


def digest(value) -> str:
    return hashlib.sha256(canonical(value).encode()).hexdigest()


def load_golden(path: Path = GOLDEN_PATH) -> Dict[str, object]:
    if not path.is_file():
        return {"engine": None, "digests": {}}
    return json.loads(path.read_text())


def golden_digests(workload: str, seed: int, engine: str,
                   path: Path = GOLDEN_PATH) -> Optional[Dict[str, str]]:
    """The pinned ``{operation: digest}`` of one run, or ``None``."""

    table = load_golden(path)
    if table.get("engine") != engine:
        return None
    return table["digests"].get(workload, {}).get(str(seed))


def _parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    """Recompute ``golden.json``, cross-checking both engines per seed."""

    import argparse
    import sys

    from perfbench.env import bootstrap

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--seeds", default="0-31",
                        help="seed list, e.g. 0-31 or 0,1,5")
    args = parser.parse_args(argv)
    engine = bootstrap()

    from perfbench.workloads import WORKLOADS

    table: Dict[str, Dict[str, Dict[str, str]]] = {}
    for name, factory in WORKLOADS.items():
        for seed in _parse_seeds(args.seeds):
            pinned = factory(seed, engine).reference_digests()
            checked = factory(seed, "cycle").reference_digests()
            if pinned != checked:
                print(f"{name} seed {seed}: {engine} and cycle engines "
                      "disagree; golden table not written", file=sys.stderr)
                return 1
            table.setdefault(name, {})[str(seed)] = pinned
            print(f"{name} seed {seed}: {len(pinned)} outputs", flush=True)
    GOLDEN_PATH.write_text(json.dumps(
        {"engine": engine, "digests": table}, indent=1, sort_keys=True
    ) + "\n")
    return 0


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    raise SystemExit(main())
