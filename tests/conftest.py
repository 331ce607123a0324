"""Suite-wide settings.

Every property test draws the same examples on every run and reads no example
database, so two checkouts of the suite test the same inputs.  Per-test
``@settings`` keep their example counts.

Child processes (``python -m gkzkit``) import the package from this checkout:
its ``src`` goes first on their ``PYTHONPATH``, which pytest's own
``pythonpath`` setting does not reach.
"""

import os
from pathlib import Path

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC, *filter(None, [os.environ.get("PYTHONPATH")])]
)
