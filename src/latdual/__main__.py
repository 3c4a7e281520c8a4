"""``python -m latdual``: the same command line as the ``latdual`` script."""

import sys

from .cli import main

sys.exit(main())
