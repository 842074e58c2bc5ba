"""Shared test settings.

Property tests draw their inputs with hypothesis under one profile:
derandomized, so every run tries the same examples, and without a
deadline, so a slow shared host cannot fail an example on time alone.
"""

from hypothesis import settings

settings.register_profile(
    "cylspec", derandomize=True, deadline=None, max_examples=20, database=None
)
settings.load_profile("cylspec")
