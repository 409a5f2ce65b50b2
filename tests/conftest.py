"""Suite-wide test settings.

Every hypothesis test runs derandomized, without a deadline and without an
example database, so a run depends on the code alone; each test sets only
its own max_examples.
"""

from hypothesis import settings

settings.register_profile("hfree", derandomize=True, deadline=None, database=None)
settings.load_profile("hfree")
