"""`python -m loccsynth INPUT.json ...` runs the command line front end."""

import sys

from .frontend_cli import main

if __name__ == "__main__":
    sys.exit(main())
