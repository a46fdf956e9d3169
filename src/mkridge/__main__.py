"""``python -m mkridge``: the same command line as the ``mkridge`` script."""

import sys

from .cli import main

sys.exit(main())
