"""`python -m mfl`: the command-line interface, as the `mfl` script."""

import sys

from .cli import main

sys.exit(main())
