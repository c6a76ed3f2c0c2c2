"""Measurement conditioning: building the common time base.

Sec. IV-F: *"On the way to the third storage level, data are conditioned
by first evaluating the synchronization measurements taken during the
experiment and unifying the time base of all second level measurements.
Then, the event list and captured packets are split up into single
entries."*

The per-(run, node) offset estimate ``TimeDiff`` from the time-sync
measurements is ``local_clock − reference_clock``; conditioning therefore
maps every local timestamp ``t`` to ``common = t − TimeDiff``.  The
residual error is bounded by the sync measurement's RTT/2 plus clock drift
over the run — both small because sync runs immediately before each run on
the idle control channel.

Master-side records (node id ``master``) already carry reference-clock
timestamps; their offset is zero by construction.

Conditioning inherits the store's corruption policy (DESIGN.md §11): the
first corrupt run record raises :class:`~repro.core.errors.StorageError`
and nothing of the run reaches level 3.  A torn stream is not repaired;
the campaign re-executes its run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Tuple

from repro.core.errors import StorageError
from repro.durable import decode_record, encode_record
from repro.storage.level2 import Level2Store

__all__ = [
    "ConditionedRun",
    "ConditionedExperiment",
    "condition_experiment",
    "condition_scope",
    "iter_conditioned_runs",
    "encode_scope",
    "decode_scope",
]

MASTER_NODE_ID = "master"


@dataclass
class ConditionedRun:
    """One run's unified-time data, split into single entries."""

    run_id: int
    start_time: float
    treatment: Dict[str, Any]
    #: ``{node: offset}`` used for conditioning (the TimeDiff attribute).
    offsets: Dict[str, float]
    events: List[Dict[str, Any]] = field(default_factory=list)
    packets: List[Dict[str, Any]] = field(default_factory=list)
    extra_measurements: Dict[str, Dict[str, Any]] = field(default_factory=dict)


@dataclass
class ConditionedExperiment:
    """Everything the level-3 writer needs, in memory."""

    description_xml: str
    runs: List[ConditionedRun]
    node_logs: Dict[str, str]
    experiment_measurements: Dict[str, Any]
    eefiles: Dict[str, str]
    plan: List[Dict[str, Any]]


def encode_scope(scope: ConditionedExperiment) -> str:
    """Serialize the experiment-scope payload (no run data): the form a
    fleet worker ships and the coordinator persists as ``scope.json``."""
    return encode_record(
        {
            "description_xml": scope.description_xml,
            "node_logs": scope.node_logs,
            "experiment_measurements": scope.experiment_measurements,
            "eefiles": scope.eefiles,
            "plan": scope.plan,
        }
    )


def decode_scope(text: str) -> ConditionedExperiment:
    data = decode_record(text)
    return ConditionedExperiment(
        description_xml=data["description_xml"],
        runs=[],
        node_logs=data["node_logs"],
        experiment_measurements=data["experiment_measurements"],
        eefiles=data["eefiles"],
        plan=data["plan"],
    )


def _condition_stream(
    records: List[Dict[str, Any]], offsets: Dict[str, float], run_id: int
) -> Tuple[List[Dict[str, Any]], List[Tuple[float, str, int]]]:
    """Condition one node's records in place; return them with their sort
    keys.

    The records are the fresh dicts :meth:`Level2Store.read_run_stream`
    parsed, which nothing else holds, so they are not copied.  The key is
    a total order on the common time base; ties are broken by node for
    stability (causal conflicts below sync error are unavoidable and
    documented, not hidden).
    """
    keys: List[Tuple[float, str, int]] = []
    for rec in records:
        common = float(rec["local_time"]) - offsets.get(rec.get("node", MASTER_NODE_ID), 0.0)
        rec["common_time"] = common
        rec.setdefault("run_id", run_id)
        keys.append((common, rec.get("node", ""), rec.get("seq", -1)))
    return records, keys


def _merge_streams(
    streams: List[Tuple[List[Dict[str, Any]], List[Tuple[float, str, int]]]]
) -> List[Dict[str, Any]]:
    """Merge per-node conditioned streams into one totally ordered list.

    One stable sort of the concatenation by the precomputed keys, so
    equal keys keep stream order.  Every normally collected stream is
    already sorted (nodes log chronologically and a constant per-node
    offset preserves order), and the sort merges such runs in O(n log k);
    an unsorted stream costs no more than a full sort.
    """
    records = [rec for recs, _ in streams for rec in recs]
    keys = [key for _, stream_keys in streams for key in stream_keys]
    return [records[i] for i in sorted(range(len(keys)), key=keys.__getitem__)]


def _condition_packed(
    store: Level2Store, run_id: int, stream: str, offsets: Dict[str, float]
) -> List[Dict[str, Any]]:
    """Condition one packed run stream, scanned once and consumed node by
    node (ascending id, the tie order of the sort key), so the reader's
    dict holds nothing afterwards."""
    by_node = store.read_run_stream(run_id, stream)
    return _merge_streams([
        _condition_stream(by_node.pop(node_id), offsets, run_id)
        for node_id in sorted(by_node)
    ])


def condition_run(store: Level2Store, run_id: int) -> ConditionedRun:
    """Condition one run from level-2 data."""
    try:
        info = store.read_run_info(run_id)
    except StorageError:
        raise StorageError(f"run {run_id} has no run info; incomplete collection")
    sync = store.read_timesync(run_id)
    offsets = {node: float(m["offset"]) for node, m in sync.items()}
    offsets[MASTER_NODE_ID] = 0.0

    return ConditionedRun(
        run_id=run_id,
        start_time=float(info["start_time"]),
        treatment=info.get("treatment", {}),
        offsets=offsets,
        events=_condition_packed(store, run_id, "events.jsonl", offsets),
        packets=_condition_packed(store, run_id, "packets.jsonl", offsets),
        extra_measurements={
            node_id: extra
            for node_id, extra in store.read_run_extra_measurements(run_id).items()
            if extra
        },
    )


def iter_conditioned_runs(store: Level2Store) -> Iterator[ConditionedRun]:
    """Condition a store's runs one at a time, in run id order.

    The streaming counterpart of :func:`condition_experiment`: peak
    memory is one run's records, so arbitrarily large experiments can be
    conditioned and fed straight into the level-3 writer.
    """
    for run_id in store.run_ids():
        yield condition_run(store, run_id)


def condition_scope(store: Level2Store) -> ConditionedExperiment:
    """Condition only the experiment-scope data (no run records).

    Pair with :func:`iter_conditioned_runs` for a streaming pipeline; the
    campaign merge also uses this to avoid conditioning the scope store's
    runs it is about to discard.
    """
    logs = store.read_node_logs()
    node_logs = {node_id: logs.get(node_id, "") for node_id in store.node_ids()}
    return ConditionedExperiment(
        description_xml=store.read_description(),
        runs=[],
        node_logs=node_logs,
        experiment_measurements=store.experiment_measurements(),
        eefiles=store.eefiles(),
        plan=store.read_plan(),
    )


def condition_experiment(store: Level2Store) -> ConditionedExperiment:
    """Condition a complete level-2 store into memory.

    Convenience for small experiments and API compatibility; the storage
    fast path (:func:`repro.storage.level3.store_level3`) streams runs
    via :func:`iter_conditioned_runs` instead of materializing them all.
    """
    data = condition_scope(store)
    data.runs = list(iter_conditioned_runs(store))
    return data
