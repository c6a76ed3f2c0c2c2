"""Identity of a level-3 package inside the L4 warehouse.

Two orthogonal fingerprints drive the repository (DESIGN.md §13):

* the **factor fingerprint** — a hash of the plan's factor *structure*
  (factor names and the sorted set of levels each takes).  Together with
  the experiment name it keys the partition an experiment lands in:
  replications and run order don't move an experiment, adding a factor
  or a level does.  Experiments that explore the same factor space share
  a partition and are therefore directly comparable with one query.
* the **content digest** — the Table-I digest
  (:func:`repro.storage.level3.database_digest`), the same hash every
  equivalence check in the code base pins.  It dedups re-ingests of the
  same package and anchors ``repro repo regression-check``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List

from repro.core.errors import StorageError
from repro.storage.level3 import ExperimentDatabase, database_digest, read_stamped_digest

__all__ = [
    "ExperimentKey",
    "content_fingerprint",
    "factor_fingerprint_from_plan",
    "fingerprint_package",
]


@dataclass(frozen=True)
class ExperimentKey:
    """Everything the catalogue needs to route and dedup one package."""

    name: str
    comment: str
    ee_version: str
    exp_xml: str
    factor_fingerprint: str
    content_digest: str

    @property
    def partition(self) -> "tuple[str, str]":
        return (self.name, self.factor_fingerprint)


def content_fingerprint(db_path, trusted: bool = True) -> str:
    """Table-I content digest of a level-3 package (the dedup and
    regression anchor — identical to the campaign merge's digest).

    With ``trusted=True`` (the ingest/import/dedup paths) the digest
    stamped at package finalization (``PackageChecksums``, written by
    every framework writer as its last mutation) is read back in O(1);
    re-hashing the whole package per ingest would otherwise dominate
    warehouse throughput.  Packages without a stamp fall back to
    computing.  Verification paths pass ``trusted=False`` and always
    recompute: a package edited behind the framework's back carries a
    stale stamp, and ``regression-check`` exists precisely to catch
    such perturbations.
    """
    if trusted:
        stamped = read_stamped_digest(db_path)
        if stamped is not None:
            return stamped
    return database_digest(db_path)


def factor_fingerprint_from_plan(plan: List[Dict[str, Any]]) -> str:
    """Hash the factor structure of a treatment plan.

    Only scalar factor levels participate; nested dicts (composite
    factor payloads) are skipped, as the analysis layer does when
    grouping by treatment.  An empty plan hashes to a well-defined
    sentinel partition rather than failing, so hand-built packages
    without a plan remain ingestable.
    """
    levels: Dict[str, set] = {}
    for entry in plan:
        for fname, value in (entry.get("treatment") or {}).items():
            if isinstance(value, dict):
                continue
            levels.setdefault(fname, set()).add(json.dumps(value, sort_keys=True))
    shape = {name: sorted(vals) for name, vals in levels.items()}
    blob = json.dumps(shape, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def fingerprint_package(db_path, trusted: bool = True) -> ExperimentKey:
    """Open a level-3 package once and compute its full warehouse key.

    *trusted* is forwarded to :func:`content_fingerprint`.
    """
    with ExperimentDatabase(db_path) as db:
        info = db.experiment_info()
        try:
            plan = db.plan()
        except StorageError:
            plan = []
    return ExperimentKey(
        name=info["Name"],
        comment=info["Comment"],
        ee_version=info["EEVersion"],
        exp_xml=info["ExpXML"],
        factor_fingerprint=factor_fingerprint_from_plan(plan),
        content_digest=content_fingerprint(db_path, trusted=trusted),
    )
