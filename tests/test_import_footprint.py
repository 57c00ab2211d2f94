"""The package imports without numpy.

Nothing in the package uses numpy, and importing it costs every process,
pool workers included, about 12 MB of peak RSS.  A fresh interpreter keeps
the modules this test session has already imported out of the check.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_package_import_leaves_numpy_unloaded():
    code = ("import sys, repro, repro.api, repro.testing; "
            "print('numpy' in sys.modules)")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
