"""``python -m bimodcat``: the same command line as the ``bimodcat`` script."""

import sys

from .cli import main

sys.exit(main())
