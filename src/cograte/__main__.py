"""``python -m cograte``: the command-line interface of :mod:`cograte.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
