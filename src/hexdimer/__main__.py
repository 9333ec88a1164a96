"""``python -m hexdimer``: the ``hexdimer`` command."""

import sys

from .cli import main

sys.exit(main())
