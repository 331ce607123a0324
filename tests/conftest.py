"""Suite-wide hypothesis settings: every property test draws the same
examples on every run and reads no example database, so two checkouts of the
suite test the same inputs.  Per-test ``@settings`` keep their example counts.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
