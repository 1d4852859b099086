"""``python -m kdqlab``: the same entry as the ``kdqlab`` console script, ``cli.run``.

``run`` freezes the collector after ``main`` returns, so the process exits
without the interpreter's teardown of numpy's heap (about 10% of a fresh
``kdqlab scenario`` process); see ``kdqlab.cli``.
"""

import sys

from .cli import run

sys.exit(run())
