"""Suite-wide test settings.

Hypothesis examples here replay whole streams through the engine, which can
take longer than hypothesis' default 200 ms deadline on a small host, so the
deadline is off.  The example count is fixed at hypothesis' default of 100,
so that every run does the same amount of work.
"""

from hypothesis import settings

settings.register_profile("evrec", deadline=None, max_examples=100)
settings.load_profile("evrec")
