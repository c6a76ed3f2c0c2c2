"""Batching front door to L4 warehouse ingestion.

``submit`` buffers a package; a full buffer (``batch_size`` packages)
or :meth:`WriteBehindIngester.flush` writes it through
:meth:`repro.repo.warehouse.Warehouse.ingest_many` on the calling
thread.  The batching is where the throughput over sequential imports
comes from:

* one journal fsync per batch instead of per package;
* one transaction per attach group of ≤ 6 packages.

Durability is the journal's job, not the ingester's: once
``ingest_many`` returns, the batch is journaled and recoverable.  A
crash while packages sit in the buffer loses only those un-journaled
submissions — the same window a caller of ``ingest_many`` has before
calling it.

If a batch fails, what it committed stands and the rest is retried
package by package, so a single corrupt file poisons only itself; its
error is recorded against its submission and re-raised by
:meth:`WriteBehindIngester.flush`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.errors import StorageError
from repro.obs.metrics import count_suppressed_error, get_registry

from repro.repo.warehouse import INGEST_ERRORS, IngestError, IngestResult, Warehouse

__all__ = ["WriteBehindIngester"]


class WriteBehindIngester:
    """Buffers submitted packages into :meth:`Warehouse.ingest_many`
    batches."""

    def __init__(self, warehouse: Warehouse, batch_size: int = 16) -> None:
        if batch_size < 1:
            raise StorageError("batch_size must be >= 1")
        self.warehouse = warehouse
        self.batch_size = batch_size
        self._buffer: List[Tuple[int, Any, bool]] = []
        self._results: List[Optional[IngestResult]] = []
        self._errors: Dict[int, str] = {}
        self._closed = False

    def submit(self, path, force: bool = False) -> int:
        """Buffer one package (writing the buffer once it is full);
        returns its submission index."""
        if self._closed:
            raise StorageError("ingester is closed")
        index = len(self._results)
        self._results.append(None)
        self._buffer.append((index, path, force))
        get_registry().counter(
            "repro_repo_queue_submissions_total",
            "Packages submitted to the write-behind ingest queue",
        ).inc()
        if len(self._buffer) >= self.batch_size:
            self._write()
        return index

    def flush(self) -> List[Optional[IngestResult]]:
        """Ingest everything submitted so far.

        Returns results in submission order, or raises
        :class:`~repro.repo.warehouse.IngestError` — carrying those
        results, ``None`` for each submission that failed — if any did.
        """
        self._write()
        if self._errors:
            detail = "; ".join(
                f"#{i}: {msg}" for i, msg in sorted(self._errors.items())
            )
            raise IngestError(f"ingest queue failures: {detail}", list(self._results))
        return list(self._results)

    def close(self) -> List[Optional[IngestResult]]:
        """Flush, refuse further submissions, and return all results."""
        self._closed = True
        return self.flush()

    def __enter__(self) -> "WriteBehindIngester":
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.close()
        except StorageError:
            if exc == (None, None, None):
                raise

    def _write(self) -> None:
        batch, self._buffer = self._buffer, []
        # ``force`` is a per-batch flag on ingest_many; split by value
        # (mixed batches are rare — a flag change mid-stream).
        for force in (False, True):
            sub = [entry for entry in batch if entry[2] is force]
            if not sub:
                continue
            try:
                results = self.warehouse.ingest_many(
                    [path for _i, path, _f in sub], force=force
                )
            except INGEST_ERRORS as exc:
                # Batch-level failure: keep what committed, then retry the
                # rest one by one so a single bad package poisons only
                # itself.  The batch's own error is counted; each package
                # reports its own.
                count_suppressed_error("repo_batch_fallback")
                results = exc.results if isinstance(exc, IngestError) else [None] * len(sub)
                for (index, path, _f), result in zip(sub, results):
                    if result is None:
                        try:
                            result = self.warehouse.ingest(path, force=force)
                        except INGEST_ERRORS as err:
                            self._errors[index] = f"{path}: {err}"
                    self._results[index] = result
            else:
                for (index, _p, _f), result in zip(sub, results):
                    self._results[index] = result
