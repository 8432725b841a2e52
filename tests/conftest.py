"""Settings shared by every test module."""

from hypothesis import settings

# Property tests try the same examples on every run, with no time limit per
# example and no example database; each test sets its own max_examples.
settings.register_profile("qkdplan", deadline=None, derandomize=True, database=None)
settings.load_profile("qkdplan")
