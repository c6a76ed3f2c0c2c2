"""Terminal histograms for response-time distributions.

The responsiveness studies the framework was built for reason about the
*distribution* of discovery times (the retry schedule shows up as modes
at ~0, ~1 s, ~3 s, ...).  A text histogram makes that structure visible
in any terminal or report.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

__all__ = ["histogram", "t_r_histogram"]


def histogram(
    values: Sequence[float],
    bins: int = 12,
    width: int = 40,
    lo: Optional[float] = None,
    hi: Optional[float] = None,
) -> str:
    """Render *values* (seconds) as a fixed-width ASCII histogram.

    Bin edges default to the data range; a degenerate range (all values
    equal) renders a single full bar.
    """
    values = [float(v) for v in values]
    if not values:
        return "(no samples)"
    lo = min(values) if lo is None else lo
    hi = max(values) if hi is None else hi
    if hi <= lo:
        label = f"{lo:.3f}s"
        return f"{label:>14} |{'#' * width} {len(values)}"
    span = hi - lo
    counts = [0] * bins
    clipped = 0
    for v in values:
        if v < lo or v > hi:
            clipped += 1
            continue
        idx = min(bins - 1, int((v - lo) / span * bins))
        counts[idx] += 1
    peak = max(counts) or 1
    lines: List[str] = []
    for i, count in enumerate(counts):
        left = lo + span * i / bins
        right = lo + span * (i + 1) / bins
        bar = "#" * int(round(count / peak * width))
        lines.append(f"{left:7.3f}-{right:7.3f}s |{bar:<{width}} {count}")
    if clipped:
        lines.append(f"(+{clipped} sample(s) outside [{lo:g}, {hi:g}])")
    return "\n".join(lines)


def t_r_histogram(
    outcomes: Iterable,
    bins: int = 12,
    width: int = 40,
) -> str:
    """Histogram of discovery times from :class:`RunDiscovery` outcomes.

    Misses (no complete discovery) are reported as a trailing line, since
    they have no finite t_R to bin.
    """
    outcomes = list(outcomes)
    times = [o.t_r for o in outcomes if o.t_r is not None]
    misses = len(outcomes) - len(times)
    body = histogram(times, bins=bins, width=width)
    if misses:
        body += f"\n{'missed':>15} |{'x' * min(width, misses)} {misses}"
    return body
