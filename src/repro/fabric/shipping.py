"""JSON-safe shipping of level-3 rows and the experiment-scope payload.

Workers execute runs against their *local* staging stores and shard
databases; what crosses the wire to the coordinator is the already
conditioned, already ordered level-3 row data.  Two reasons not to ship
native XML-RPC values:

* XML-RPC's ``<int>`` is 32-bit — seeds and packet ids routinely exceed
  it — while JSON carries Python's arbitrary-precision ints unharmed;
* SQLite rows may hold BLOBs, which JSON cannot represent directly;
  they travel tagged as ``{"__bytes__": "<base64>"}``.

JSON float serialization uses ``repr``-exact round-tripping, so a float
that leaves a worker's shard arrives at the coordinator bit-identical —
a requirement, since the merged database must be byte-identical to a
local campaign's.

Row order *is* data: :func:`extract_run_rows` reads each table ``ORDER BY
rowid`` (the conditioned order) and :class:`CoordinatorShard` re-inserts
in shipped order, so rowid order inside the coordinator's shard equals
the worker's — which is what the deterministic merge sorts by.
"""

from __future__ import annotations

import base64
import json
import sqlite3
from typing import Any, Dict, List

from repro.core.errors import StorageError
from repro.storage.conditioning import decode_scope, encode_scope
from repro.storage.level3 import ALL_RUN_TABLES, RunShard, insert_rows, read_run_rows

__all__ = [
    "encode_payload",
    "decode_payload",
    "extract_run_rows",
    "encode_scope",
    "decode_scope",
    "CoordinatorShard",
]


def _tag_bytes(value: Any) -> Any:
    if isinstance(value, bytes):
        return {"__bytes__": base64.b64encode(value).decode("ascii")}
    raise TypeError(f"unshippable value of type {type(value).__name__}")


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict) and "__bytes__" in value:
        return base64.b64decode(value["__bytes__"])
    return value


def encode_payload(payload: Dict[str, Any]) -> str:
    """Serialize a shipping payload (tables / scope / result) to JSON,
    tagging BLOB cells on the way."""
    return json.dumps(payload, sort_keys=True, default=_tag_bytes)


def decode_payload(text: str) -> Dict[str, Any]:
    return json.loads(text)


def extract_run_rows(shard_path, run_id: int) -> Dict[str, List[tuple]]:
    """Read one run's rows from a worker shard, per table, in rowid order.

    Returns ``{table: [row, ...]}`` with cells as SQLite holds them
    (:func:`encode_payload` makes them JSON-safe); tables the run has no
    rows in are omitted.
    """
    conn = sqlite3.connect(str(shard_path))
    try:
        return dict(read_run_rows(conn, run_id))
    finally:
        conn.close()


class CoordinatorShard(RunShard):
    """The coordinator-side level-3 shard one worker's runs land in.

    Same schema and same crash contract as
    :class:`repro.campaign.merge.ShardWriter`: :meth:`ingest` replaces
    whatever a previous shipment left for the run in a single transaction
    (:meth:`RunShard.replacing_run`) — the fabric's commit point.  A run
    either fully exists in the shard or not at all, which is exactly what
    :func:`repro.campaign.merge.shard_has_run` probes on resume.
    """

    def ingest(self, run_id: int, tables: Dict[str, List[list]]) -> int:
        """Commit one shipped run; returns the number of rows written."""
        unknown = set(tables) - set(ALL_RUN_TABLES)
        if unknown:
            raise StorageError(f"shipment for run {run_id} names unknown tables {sorted(unknown)}")
        if not tables.get("RunInfos"):
            raise StorageError(f"shipment for run {run_id} carries no RunInfos rows")
        decoded = {
            table: [[_decode_value(cell) for cell in row] for row in rows]
            for table, rows in tables.items()
        }
        with self.replacing_run(run_id) as conn:
            return insert_rows(conn, decoded.items())
