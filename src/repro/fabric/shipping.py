"""Shipping one run's level-3 rows, and the experiment-scope payload.

A worker ships each run it executed as a SQLite image of that run
(:func:`repro.storage.level3.serialize_run`), base64 text inside the
JSON ``ack`` payload — JSON because XML-RPC's ``<int>`` is 32-bit, and
seeds and packet ids routinely exceed it.  :class:`CoordinatorShard`
checks the image and copies the run out of it with the same
``INSERT … SELECT … ORDER BY rowid`` the worker copied it in with
(:func:`repro.storage.level3.copy_run_rows`): cells never enter Python,
so they arrive bit-identical, and rowid order inside the coordinator's
shard equals the worker's — which is what the deterministic merge
sorts by.
"""

from __future__ import annotations

import base64
import json
import sqlite3
from typing import Any, Dict

from repro.core.errors import StorageError
from repro.storage.conditioning import decode_scope, encode_scope
from repro.storage.level3 import ALL_RUN_TABLES, RunShard, copy_run_rows, serialize_run

__all__ = [
    "encode_payload",
    "decode_payload",
    "extract_run_rows",
    "encode_scope",
    "decode_scope",
    "CoordinatorShard",
]


def encode_payload(payload: Dict[str, Any]) -> str:
    """Serialize a shipping payload (image / scope / result) to JSON."""
    return json.dumps(payload, sort_keys=True)


def decode_payload(text: str) -> Dict[str, Any]:
    return json.loads(text)


def extract_run_rows(shard_path, run_id: int) -> str:
    """One run of a worker shard as a SQLite image, base64 text — the
    shipment :meth:`CoordinatorShard.ingest` takes."""
    return base64.b64encode(serialize_run(shard_path, run_id)).decode("ascii")


class CoordinatorShard(RunShard):
    """The coordinator-side level-3 shard one worker's runs land in.

    Same schema and same crash contract as
    :class:`repro.campaign.merge.ShardWriter`: :meth:`ingest` replaces
    whatever a previous shipment left for the run in a single transaction
    (:meth:`RunShard.replacing_run`) — the fabric's commit point.  A run
    either fully exists in the shard or not at all, which is exactly what
    :func:`repro.campaign.merge.shard_has_run` probes on resume.
    """

    def ingest(self, run_id: int, image: str) -> int:
        """Commit one shipped run image; returns the number of rows written.

        Before the run's old rows are touched, an image that fails to
        deserialize or ``PRAGMA quick_check``, holds other tables than
        the run tables, or has no ``RunInfos`` row for *run_id* raises
        :class:`StorageError`.  Only *run_id*'s rows are copied."""
        what = f"shipment for run {run_id}"
        self.conn.execute("ATTACH DATABASE ':memory:' AS shipped")
        try:
            try:
                self.conn.deserialize(base64.b64decode(image, validate=True), name="shipped")
                check = [row[0] for row in self.conn.execute("PRAGMA shipped.quick_check")]
                names = "SELECT name FROM shipped.sqlite_master WHERE type = 'table'"
                tables = {row[0] for row in self.conn.execute(names)}
            except (ValueError, sqlite3.DatabaseError) as exc:
                raise StorageError(f"{what} is no SQLite image: {exc}") from exc
            if check != ["ok"]:
                raise StorageError(f"{what} fails quick_check: {check[:3]}")
            if tables != set(ALL_RUN_TABLES):
                raise StorageError(f"{what} holds tables {sorted(tables)}")
            runinfo = "SELECT 1 FROM shipped.RunInfos WHERE RunID = ?"
            if self.conn.execute(runinfo, (run_id,)).fetchone() is None:
                raise StorageError(f"{what} carries no RunInfos rows for it")
            with self.replacing_run(run_id) as conn:
                return sum(copy_run_rows(conn, "shipped", run_id).values())
        finally:
            self.conn.execute("DETACH DATABASE shipped")
