"""``python -m repro.bench`` — see :mod:`repro.bench.paper`."""

import sys

from .paper import main

if __name__ == "__main__":
    sys.exit(main())
