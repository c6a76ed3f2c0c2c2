"""Statistics helpers for experiment analysis.

Kept deliberately small: means with Student-t confidence intervals, a
Wilson interval for proportions, percentiles and a one-call summary.
Every interval is two-sided at :data:`CONFIDENCE`.  Vectorized with NumPy
— analysis runs over tens of thousands of rows when replication counts
approach the paper's 1000.  NumPy and SciPy are imported inside the
functions that compute, so importing this module loads neither.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Sequence, Tuple

__all__ = [
    "mean_confidence_interval",
    "percentile",
    "summarize",
    "binomial_proportion_ci",
]

#: Confidence level of every interval here.
CONFIDENCE = 0.95
#: Two-sided z quantile at :data:`CONFIDENCE` (the Wilson interval's).
_Z = 1.959963984540054


def mean_confidence_interval(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(mean, lower, upper)`` of the sample mean.

    Raises ``ValueError`` on an empty sample; a single observation yields
    a degenerate (zero-width) interval.
    """
    import numpy as np
    from scipy import stats

    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    mean = float(arr.mean())
    if arr.size == 1:
        return mean, mean, mean
    sem = float(arr.std(ddof=1)) / math.sqrt(arr.size)
    half = float(stats.t.ppf(0.5 + CONFIDENCE / 2.0, arr.size - 1)) * sem
    return mean, mean - half, mean + half


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (q in [0, 100]) of a sample."""
    import numpy as np

    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot take a percentile of an empty sample")
    return float(np.percentile(arr, q))


def binomial_proportion_ci(successes: int, trials: int) -> Tuple[float, float, float]:
    """Wilson score interval for a proportion — the right interval for
    responsiveness estimates near 1.0, where the normal approximation
    collapses."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    z = _Z
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
        / denom
    )
    return p, max(0.0, center - half), min(1.0, center + half)


def summarize(values: Iterable[float]) -> Dict[str, Optional[float]]:
    """One-call sample summary used by report printers."""
    import numpy as np

    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return {
            "n": 0, "mean": None, "std": None, "min": None,
            "p50": None, "p95": None, "max": None,
        }
    return {
        "n": int(arr.size),
        "mean": float(arr.mean()),
        "std": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        "min": float(arr.min()),
        "p50": float(np.percentile(arr, 50)),
        "p95": float(np.percentile(arr, 95)),
        "max": float(arr.max()),
    }
