"""Shared test settings.

Property tests run under one hypothesis profile: derandomized, so every run
draws the same examples; with no example database, so no .hypothesis/
directory appears; and with no deadline, because timings on a shared
machine are noisy.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("flagricci", derandomize=True, database=None, deadline=None)
    settings.load_profile("flagricci")
