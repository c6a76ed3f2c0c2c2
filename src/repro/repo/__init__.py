"""L4 multi-experiment repository — the warehouse (DESIGN.md §13).

ExCovery Sec. IV-F names a fourth storage level, "the integration of
multiple experiments into a single repository", and leaves it
unrealized.  This package is that level at scale:

* :mod:`repro.repo.catalog` — the one warehouse file: catalogue,
  (name, factor-fingerprint) partitions, Table-I rows and read models;
* :mod:`repro.repo.shard` — attach-group ingestion, one transaction
  per group (a slice is read back by the level-3 reader itself);
* :mod:`repro.repo.journal` — the fsynced ingest journal making
  batched ingestion crash-safe;
* :mod:`repro.repo.views` — materialized cross-experiment read models;
* :mod:`repro.repo.cache` — the cache-aside layer over the read models;
* :mod:`repro.repo.warehouse` — the façade tying them together;
* :mod:`repro.repo.queue` — the batching front door.

Everything runs on the caller's thread: there is no background thread
or pool, and a warehouse is used by the thread that opened it.
"""

from repro.repo.cache import AggregateCache
from repro.repo.catalog import Catalog
from repro.repo.fingerprint import (
    ExperimentKey,
    content_fingerprint,
    factor_fingerprint_from_plan,
    fingerprint_package,
)
from repro.repo.journal import IngestJournal
from repro.repo.queue import WriteBehindIngester
from repro.repo.warehouse import IngestError, IngestResult, Warehouse

__all__ = [
    "AggregateCache",
    "Catalog",
    "ExperimentKey",
    "IngestError",
    "IngestJournal",
    "IngestResult",
    "Warehouse",
    "WriteBehindIngester",
    "content_fingerprint",
    "factor_fingerprint_from_plan",
    "fingerprint_package",
]
