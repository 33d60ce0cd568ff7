"""``python -m rfe``: the ``rfe`` command line of :func:`rfe.cli.main`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
