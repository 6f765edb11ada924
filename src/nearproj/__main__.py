"""`python -m nearproj ARGS` runs the nearproj command line, as the installed
`nearproj` script does, and exits with its status."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
