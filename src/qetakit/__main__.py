"""``python -m qetakit``: the ``qetakit`` command line (:mod:`qetakit.cli`)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
