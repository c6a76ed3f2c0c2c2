"""Property tests: the kernel is order-identical to the frozen
single-heap reference kernel.

The determinism contract says both kernels execute the same schedule in
exactly the same global ``(time, sequence)`` order — including
same-instant bursts, callbacks that schedule more callbacks at the
current instant, far-future entries, and ``run(until=...)`` horizons.
These tests drive both kernels through randomized schedules and compare
the full execution traces element by element.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import SimulationError, Simulator
from tests.oracles.sim_reference import ReferenceSimulator

# Delay pool mixing sub-millisecond, near and far-future times, plus
# exact duplicates to force same-instant ties.
_DELAYS = st.one_of(
    st.sampled_from([0.0, 0.0005, 0.001, 0.25, 1.0, 1.024, 5.0, 60.0]),
    st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
)


def _trace_run(sim_cls, schedule, until=None, chain_every=0):
    """Execute *schedule* on a fresh kernel; return the execution trace.

    Each trace element is ``(now, tag)``.  When ``chain_every`` is > 0,
    every chain_every-th callback schedules a follow-up at the *current*
    instant — a push that lands at the heap's head during a drain.
    """
    sim = sim_cls()
    trace = []

    def fire(tag):
        trace.append((sim.now, tag))
        if chain_every and tag % chain_every == 0:
            sim.call_later(0.0, fire, -tag - 1)

    for tag, delay in enumerate(schedule):
        sim.call_later(delay, fire, tag)
    sim.run(until=until)
    return trace, sim.now, sim.executed_callbacks


@given(delays=st.lists(_DELAYS, min_size=1, max_size=120))
@settings(max_examples=150, deadline=None)
def test_traces_identical_for_random_schedules(delays):
    kernel_trace, kernel_now, kernel_count = _trace_run(Simulator, delays)
    ref_trace, ref_now, ref_count = _trace_run(ReferenceSimulator, delays)
    assert kernel_trace == ref_trace
    assert kernel_now == ref_now
    assert kernel_count == ref_count


@given(delays=st.lists(_DELAYS, min_size=1, max_size=80))
@settings(max_examples=100, deadline=None)
def test_traces_identical_with_same_instant_chains(delays):
    kernel = _trace_run(Simulator, delays, chain_every=3)
    ref = _trace_run(ReferenceSimulator, delays, chain_every=3)
    assert kernel == ref


@given(
    delays=st.lists(_DELAYS, min_size=1, max_size=80),
    until=st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_until_horizon_semantics_match(delays, until):
    kernel_trace, kernel_now, _ = _trace_run(Simulator, delays, until=until)
    ref_trace, ref_now, _ = _trace_run(ReferenceSimulator, delays, until=until)
    assert kernel_trace == ref_trace
    # Both kernels advance the clock exactly to the horizon, and neither
    # executes anything scheduled past it.
    assert kernel_now == ref_now == until
    assert all(t <= until for t, _ in kernel_trace)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_interleaved_run_segments_match(seed):
    # Alternate run(until=...) segments with fresh schedule calls between
    # them, so pushes land before, at and beyond each horizon.
    rng = random.Random(seed)
    kernels = []
    for sim_cls in (Simulator, ReferenceSimulator):
        local = random.Random(seed)
        sim = sim_cls()
        trace = []

        def fire(tag, trace=trace, sim=sim):
            trace.append((sim.now, tag))

        horizon = 0.0
        tag = 0
        for _segment in range(4):
            for _ in range(local.randrange(1, 12)):
                sim.call_later(local.uniform(0.0, 30.0), fire, tag)
                tag += 1
            horizon += local.uniform(0.0, 15.0)
            sim.run(until=horizon)
        sim.run()  # drain the rest
        kernels.append((trace, sim.now, sim.executed_callbacks))
    del rng
    assert kernels[0] == kernels[1]


@pytest.mark.parametrize("sim_cls", [Simulator, ReferenceSimulator])
def test_negative_delay_rejected_by_both(sim_cls):
    sim = sim_cls()
    with pytest.raises(SimulationError):
        sim.call_later(-1e-9, lambda: None)


@pytest.mark.parametrize("sim_cls", [Simulator, ReferenceSimulator])
def test_past_absolute_time_rejected_by_both(sim_cls):
    sim = sim_cls()
    sim.call_later(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(0.5, lambda: None)
