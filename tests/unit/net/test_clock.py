"""Unit tests for skewed local clocks."""

import random

import pytest

from repro.net.clock import LocalClock, random_clock


def test_perfect_clock_tracks_sim(sim):
    clock = LocalClock(sim)
    sim.call_later(5.0, lambda: None)
    sim.run()
    assert clock.time() == 5.0


def test_offset_shifts_reading(sim):
    clock = LocalClock(sim, offset=2.5)
    assert clock.time() == 2.5


def test_drift_scales_elapsed_time(sim):
    clock = LocalClock(sim, offset=0.0, drift=0.01)
    sim.call_later(100.0, lambda: None)
    sim.run()
    assert clock.time() == pytest.approx(101.0)


def test_to_local_from_local_roundtrip(sim):
    clock = LocalClock(sim, offset=-1.25, drift=5e-5)
    for t in (0.0, 1.0, 123.456):
        assert clock.to_local(t) == pytest.approx(-1.25 + (1 + 5e-5) * t)


def test_step_models_ntp_jump(sim):
    clock = LocalClock(sim, offset=0.0)
    clock.step(0.75)
    assert clock.time() == 0.75


def test_invalid_drift_rejected(sim):
    with pytest.raises(ValueError):
        LocalClock(sim, drift=-1.0)


def test_random_clock_within_bounds(sim):
    rng = random.Random(1)
    for _ in range(50):
        clock = random_clock(sim, rng, max_offset=0.5, max_drift=1e-4)
        assert -0.5 <= clock.offset <= 0.5
        assert -1e-4 <= clock.drift <= 1e-4


def test_random_clock_deterministic(sim):
    a = random_clock(sim, random.Random(9))
    b = random_clock(sim, random.Random(9))
    assert (a.offset, a.drift) == (b.offset, b.drift)
