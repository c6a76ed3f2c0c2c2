"""The four storage levels of ExCovery (Sec. IV-F).

1. **Level 1** — the abstract experiment description, an XML document
   (produced by :func:`repro.core.xmlio.description_to_xml`).
2. **Level 2** — :class:`~repro.storage.level2.Level2Store`: the
   intermediate filesystem hierarchy holding every raw measurement, log
   and artefact of one execution, keyed by run and node.
3. **Level 3** — :mod:`repro.storage.level3`: the conditioned,
   single-experiment SQLite database with the schema of Table I.
   Conditioning (:mod:`repro.storage.conditioning`) unifies all local
   timestamps onto the common time base using the per-run clock-offset
   measurements.
4. **Level 4** — the multi-experiment repository.  The paper leaves
   this level unrealized ("To date, ExCovery does not realize this
   level"); we implement it as the sharded analytics warehouse in
   :mod:`repro.repo` (catalogue + per-partition shards, crash-safe
   write-behind ingestion, materialized read models, dedup by Table-I
   content digest — DESIGN.md §13).
"""

from repro.storage.conditioning import (
    condition_experiment,
    condition_scope,
    iter_conditioned_runs,
)
from repro.storage.level2 import Level2Store, RunWriter
from repro.storage.level3 import TABLE_SCHEMAS, ExperimentDatabase, store_level3

__all__ = [
    "ExperimentDatabase",
    "Level2Store",
    "RunWriter",
    "TABLE_SCHEMAS",
    "condition_experiment",
    "condition_scope",
    "iter_conditioned_runs",
    "store_level3",
]
