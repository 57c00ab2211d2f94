"""Where the benchmark runs, what it clears, and how it stamps records."""

from __future__ import annotations

import os
import platform
import socket
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Scratch space inside the checkout: run caches and span dumps.
WORK_DIR = ROOT / ".perfbench"

#: Variables that select engine, parallelism, backend, cache or workload
#: catalog; cleared so every run measures the program's defaults.
CLEARED_ENV = ("REPRO_ENGINE", "REPRO_JOBS", "REPRO_BACKEND",
               "REPRO_CACHE_DIR", "REPRO_WORKLOAD_DIR")


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/repro`` to benchmark."""


def bootstrap() -> str:
    """Prepare a benchmark process; return the resolved default engine.

    Makes ``src/`` importable, clears :data:`CLEARED_ENV` and keeps
    temporary files inside the checkout.
    """

    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program to benchmark: {SRC / 'repro'} "
                             "is missing")
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    WORK_DIR.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(WORK_DIR)

    from repro.api.session import resolve_engine

    return resolve_engine()


def _git(*args: str) -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def stamp(engine: str) -> Dict[str, object]:
    """Revision, dirty flag, host, ``nproc``, Python and engine of a run.

    ``git_dirty`` covers the files that decide the numbers (the program,
    the benchmark and its configuration), untracked ones included, but
    not the result history the benchmark itself appends to.  Both git
    fields are ``None`` outside a git checkout.
    """

    status = _git("status", "--porcelain", "--", "src", "perfbench",
                  "BENCHMARK.json",
                  ":(exclude)perfbench/history.jsonl")
    return {
        "git_rev": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "host": socket.gethostname(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "engine": engine,
    }
