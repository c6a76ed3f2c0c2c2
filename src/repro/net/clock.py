"""Per-node local clocks with offset and drift.

The paper treats node clock deviation as a first-class measurement problem
(Sec. IV-B3): every event and packet carries a *local* timestamp, and
ExCovery measures, before each run, the difference of each participant's
clock to a reference clock so a valid global time line can be constructed
afterwards.

To reproduce that honestly, the emulated nodes must *actually have* skewed
clocks.  A :class:`LocalClock` maps the kernel's hidden "true" time ``t``
to a local reading::

    local(t) = offset + (1 + drift) * t

``offset`` is in seconds, ``drift`` is dimensionless (e.g. ``50e-6`` for a
50 ppm crystal).  The conditioning stage (:mod:`repro.storage.conditioning`)
never sees these parameters — it must recover the common time base purely
from the sync measurements, exactly as a real testbed would.
"""

from __future__ import annotations

import random

__all__ = ["LocalClock", "random_clock"]


class LocalClock:
    """A skewed local clock bound to a simulator.

    Parameters
    ----------
    sim:
        Object exposing ``.now`` (the true time source).
    offset:
        Constant displacement of the local clock in seconds.
    drift:
        Fractional frequency error.  A drift of ``1e-4`` gains 0.1 ms per
        true second.
    """

    __slots__ = ("sim", "offset", "drift")

    def __init__(self, sim, offset: float = 0.0, drift: float = 0.0) -> None:
        if drift <= -1.0:
            raise ValueError("drift must be > -1 (clock cannot run backwards)")
        self.sim = sim
        self.offset = float(offset)
        self.drift = float(drift)

    def time(self) -> float:
        """The node's current local reading."""
        return self.to_local(self.sim.now)

    def to_local(self, true_time: float) -> float:
        """Map a true instant to this clock's reading."""
        return self.offset + (1.0 + self.drift) * true_time

    def step(self, delta: float) -> None:
        """Manually displace the clock (models an NTP step mid-experiment)."""
        self.offset += float(delta)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LocalClock offset={self.offset:+.6f}s drift={self.drift:+.2e}>"


def random_clock(
    sim,
    rng: random.Random,
    max_offset: float = 0.5,
    max_drift: float = 100e-6,
) -> LocalClock:
    """Draw a plausible desynchronized clock.

    Offsets up to ±``max_offset`` seconds and drift up to ±``max_drift``
    mimic testbed nodes whose NTP sync is only coarse — large enough that
    naive merging of local timestamps would create causal conflicts, which
    is precisely the condition the conditioning stage must fix.
    """
    return LocalClock(
        sim,
        offset=rng.uniform(-max_offset, max_offset),
        drift=rng.uniform(-max_drift, max_drift),
    )
