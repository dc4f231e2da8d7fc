"""``python -m costress <command> ...``: the command line without an install."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
