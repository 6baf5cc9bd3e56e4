"""Settings shared by every test module."""

from hypothesis import settings

# Property tests run the same examples on every run and in every checkout:
# derandomized, with no example database, and with no deadline, because one
# example may evaluate a whole functional.
settings.register_profile("anisomag", derandomize=True, database=None, deadline=None)
settings.load_profile("anisomag")
