import numpy as np
from hypothesis import settings

# every property test draws the same examples on every run and writes no
# example database
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


def pytest_report_header(config):
    from expmoments import engines

    # whether engines._filtered_exact_rows can decide rows here: an x87 long
    # double stores 63 mantissa bits; where it is a double (52), every exact
    # row of engines.moments takes Python integers.  With one usable CPU, no
    # Monte Carlo query splits its chunks across threads unless a test asks
    return (f"numpy {np.__version__}, np.longdouble nmant {np.finfo(np.longdouble).nmant}, "
            f"usable CPUs {engines._usable_cpus()}")
