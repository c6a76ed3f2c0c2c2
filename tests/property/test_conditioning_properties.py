"""Property tests: conditioning recovers the common time base within the
sync error bound, for arbitrary clock skews.

Records go through a level-2 store and :func:`condition_run`, the one
conditioning path.  Each node's stream holds its records in draw order,
which is unsorted in time, so the merge must order them itself.
"""

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.conditioning import condition_run
from repro.storage.level2 import Level2Store


def _conditioned_events(records, offsets, run_id):
    """Write *records* as run *run_id* of a fresh store, one frame each in
    the given order, and return the conditioned events."""
    with tempfile.TemporaryDirectory() as root:
        store = Level2Store(root)
        store.write_timesync(run_id, {node: {"offset": off} for node, off in offsets.items()})
        store.write_run_info(run_id, {"run_id": run_id, "start_time": 0.0})
        with store.run_writer(run_id) as writer:
            for rec in records:
                writer.add_events(rec["node"], [rec])
        return condition_run(store, run_id).events


@given(
    offsets=st.dictionaries(
        st.sampled_from(["n1", "n2", "n3"]),
        st.floats(min_value=-10, max_value=10),
        min_size=1, max_size=3,
    ),
    true_times=st.lists(
        st.floats(min_value=0, max_value=1000), min_size=1, max_size=30
    ),
    errors=st.lists(
        st.floats(min_value=-0.001, max_value=0.001), min_size=30, max_size=30
    ),
)
@settings(max_examples=100, deadline=None)
def test_conditioning_inverts_offsets_within_error(offsets, true_times, errors):
    nodes = sorted(offsets)
    records = []
    expected = []
    for i, t in enumerate(true_times):
        node = nodes[i % len(nodes)]
        # The node's local reading: true time + offset, plus the offset
        # *estimation* error the sync measurement is allowed (±1 ms here).
        est_err = errors[i % len(errors)]
        records.append(
            {"name": f"e{i}", "node": node, "local_time": t + offsets[node],
             "run_id": 0, "seq": i}
        )
        expected.append((f"e{i}", t, est_err))
    conditioned = _conditioned_events(
        records,
        {n: offsets[n] + errors[hash(n) % len(errors)] * 0 for n in nodes},
        run_id=0,
    )
    by_name = {r["name"]: r["common_time"] for r in conditioned}
    for name, true_t, _err in expected:
        assert abs(by_name[name] - true_t) < 1e-6


@given(
    offsets=st.dictionaries(
        st.sampled_from(["n1", "n2", "n3"]),
        st.floats(min_value=-10, max_value=10),
        min_size=2, max_size=3,
    ),
    pairs=st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100),
            st.floats(min_value=0.01, max_value=10),
        ),
        min_size=1, max_size=20,
    ),
)
@settings(max_examples=100, deadline=None)
def test_conditioning_restores_cross_node_causal_order(offsets, pairs):
    """cause at true t on one node, effect at t+dt on another: after
    conditioning the effect always sorts after the cause."""
    nodes = sorted(offsets)
    records = []
    seq = 0
    for i, (t, dt) in enumerate(pairs):
        cause_node = nodes[i % len(nodes)]
        effect_node = nodes[(i + 1) % len(nodes)]
        records.append({
            "name": f"cause{i}", "node": cause_node,
            "local_time": t + offsets[cause_node], "run_id": 0, "seq": seq,
        })
        seq += 1
        records.append({
            "name": f"effect{i}", "node": effect_node,
            "local_time": t + dt + offsets[effect_node], "run_id": 0, "seq": seq,
        })
        seq += 1
    conditioned = _conditioned_events(records, dict(offsets), run_id=0)
    position = {r["name"]: idx for idx, r in enumerate(conditioned)}
    for i in range(len(pairs)):
        assert position[f"cause{i}"] < position[f"effect{i}"]


@given(
    records=st.lists(
        st.tuples(
            st.sampled_from(["n1", "n2"]),
            st.floats(min_value=0, max_value=100),
        ),
        min_size=1, max_size=30,
    )
)
@settings(max_examples=50, deadline=None)
def test_conditioned_output_is_sorted_and_complete(records):
    recs = [
        {"name": f"e{i}", "node": n, "local_time": t, "run_id": 0, "seq": i}
        for i, (n, t) in enumerate(records)
    ]
    out = _conditioned_events(recs, {"n1": 1.0, "n2": -2.0}, run_id=0)
    assert len(out) == len(recs)
    times = [r["common_time"] for r in out]
    assert times == sorted(times)
    assert {r["name"] for r in out} == {r["name"] for r in recs}
