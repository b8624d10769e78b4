"""``python -m redukto``: the command-line front end of ``redukto.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
