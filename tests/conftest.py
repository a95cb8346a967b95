"""Hypothesis runs the same examples on every run, with no wall-clock
deadline, so a tier-1 result never depends on the seed or the host's load."""
from hypothesis import settings

settings.register_profile("veclog", derandomize=True, deadline=None)
settings.load_profile("veclog")
