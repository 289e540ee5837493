"""``python -m kvcohom <verb> ...``: the command line, as the ``kvcohom`` script runs it."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
