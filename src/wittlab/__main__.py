"""``python -m wittlab``: the command-line front end (see `wittlab.cli`)."""

import sys

from .cli import main

sys.exit(main())
