"""Test-suite settings shared by every module."""

from hypothesis import settings

# Property tests draw the same examples on every run, so a Tier-1 failure
# always reproduces; such runs need no example database.
settings.register_profile("plmoves", derandomize=True, deadline=None, database=None)
settings.load_profile("plmoves")
