from hypothesis import settings

# every property test draws the same examples on every run and writes no
# example database
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
