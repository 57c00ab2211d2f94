"""``python -m repro.cluster`` — the worker CLI."""

import sys

from repro.cluster.cli import main

if __name__ == "__main__":
    sys.exit(main())
