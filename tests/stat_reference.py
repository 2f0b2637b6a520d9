"""Per-series moments, the reference the stat features are checked against.

build_stat_features reduces a whole block of series at once; summarize is
the one-series-at-a-time form of the same (mean, sigma, max, min), which
the feature and acceptance tests compare it with bit for bit.
"""

import numpy as np

from counterscope.errors import TooShortSeriesError


def summarize(x):
    """(mean, population sigma, max, min) of a nonempty series."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise TooShortSeriesError("empty series")
    return float(x.mean()), float(x.std()), float(x.max()), float(x.min())
