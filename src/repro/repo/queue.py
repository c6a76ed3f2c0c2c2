"""Write-behind ingestion queue for the L4 warehouse.

``submit`` acknowledges a package immediately; a single drain thread
collects submissions into batches and pushes each batch through
:meth:`repro.repo.warehouse.Warehouse.ingest_many`.  The batching is
where the throughput over sequential imports comes from:

* one journal fsync per batch instead of per package;
* one catalogue transaction per batch;
* attach-copy groups sharing shard transactions;
* fingerprinting (the dominant CPU cost — sqlite3 and hashlib both
  release the GIL) starts in a small thread pool at *submission* time,
  so hashing overlaps later submissions and the in-flight batch's
  copies instead of serializing in front of them.

Durability is the journal's job, not the queue's: once ``ingest_many``
returns, the batch is journaled and recoverable.  A crash while entries
sit in the in-process queue loses only un-journaled submissions — the
same window a caller of the synchronous API has before calling it.

If a whole batch fails, the queue degrades to per-package ingests so a
single corrupt file poisons only itself; its error is recorded against
its submission and re-raised by :meth:`WriteBehindIngester.flush`.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from repro.core.errors import StorageError
from repro.obs.metrics import count_suppressed_error, get_registry

from repro.repo.fingerprint import fingerprint_package
from repro.repo.warehouse import IngestResult, Warehouse

__all__ = ["WriteBehindIngester"]

_SENTINEL = object()

#: Threads fingerprinting submitted packages ahead of the drain thread.
PREP_WORKERS = 4

#: Seconds the drain thread gives stragglers to join a batch it is filling.
BATCH_WINDOW = 0.02


class WriteBehindIngester:
    """Asynchronous front door to :class:`Warehouse` ingestion."""

    def __init__(self, warehouse: Warehouse, batch_size: int = 16) -> None:
        if batch_size < 1:
            raise StorageError("batch_size must be >= 1")
        self.warehouse = warehouse
        self.batch_size = batch_size
        self._queue: "queue.Queue[Any]" = queue.Queue()
        self._pool = ThreadPoolExecutor(
            max_workers=PREP_WORKERS,
            thread_name_prefix="repo-fingerprint",
        )
        self._lock = threading.Lock()
        self._done = threading.Condition(self._lock)
        self._submitted = 0
        self._completed = 0
        self._results: Dict[int, Optional[IngestResult]] = {}
        self._errors: Dict[int, str] = {}
        self._closed = False
        self._worker = threading.Thread(
            target=self._drain, name="repo-ingest-drain", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def submit(self, path, force: bool = False) -> int:
        """Enqueue one package; returns its submission index."""
        with self._lock:
            if self._closed:
                raise StorageError("ingester is closed")
            index = self._submitted
            self._submitted += 1
        # Kick fingerprinting the moment the package is handed over, so
        # hashing overlaps both later submissions and the drain thread's
        # in-flight batch ingest.
        future = self._pool.submit(fingerprint_package, path)
        self._queue.put((index, path, force, future))
        get_registry().counter(
            "repro_repo_queue_submissions_total",
            "Packages submitted to the write-behind ingest queue",
        ).inc()
        return index

    def flush(self) -> List[Optional[IngestResult]]:
        """Block until everything submitted so far has been ingested.

        Returns results in submission order (``None`` for a submission
        that failed) and raises :class:`StorageError` if any did.
        """
        with self._done:
            target = self._submitted
            while self._completed < target:
                self._done.wait(timeout=0.1)
            results = [self._results.get(i) for i in range(target)]
            errors = dict(self._errors)
        if errors:
            detail = "; ".join(
                f"#{i}: {msg}" for i, msg in sorted(errors.items())
            )
            raise StorageError(f"ingest queue failures: {detail}")
        return results

    def close(self) -> List[Optional[IngestResult]]:
        """Drain, stop the worker, and return all results in order."""
        with self._lock:
            already = self._closed
            self._closed = True
        if not already:
            self._queue.put(_SENTINEL)
        try:
            results = self.flush()
        finally:
            self._worker.join(timeout=30.0)
            self._pool.shutdown(wait=True)
        return results

    def __enter__(self) -> "WriteBehindIngester":
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.close()
        except StorageError:
            if exc == (None, None, None):
                raise

    # ------------------------------------------------------------------
    # Drain thread
    # ------------------------------------------------------------------
    def _drain(self) -> None:
        stopping = False
        while not stopping:
            item = self._queue.get()
            if item is _SENTINEL:
                return
            batch: List[Tuple[int, Any, bool, Any]] = [item]
            # Opportunistically fill the batch: take whatever is already
            # queued, then give stragglers one short window to arrive.
            while len(batch) < self.batch_size:
                try:
                    nxt = self._queue.get(
                        block=len(batch) < self.batch_size,
                        timeout=BATCH_WINDOW,
                    )
                except queue.Empty:
                    break
                if nxt is _SENTINEL:
                    stopping = True
                    break
                batch.append(nxt)
            self._ingest_batch(batch)

    def _ingest_batch(self, batch: List[Tuple[int, Any, bool, Any]]) -> None:
        # Fingerprints were kicked off at submission time; collect them
        # here, outside the warehouse lock.
        prepared: List[Tuple[int, Any, bool, Any]] = []
        for index, path, force, future in batch:
            try:
                prepared.append((index, path, force, future.result()))
            except Exception as exc:  # corrupt package: isolate it
                self._finish(index, None, error=str(exc))
        if not prepared:
            return

        # ``force`` is a per-batch flag on ingest_many; split by value
        # (mixed batches are rare — a flag change mid-stream).
        for force in (False, True):
            sub = [p for p in prepared if p[2] is force]
            if not sub:
                continue
            try:
                results = self.warehouse.ingest_many(
                    [p[1] for p in sub],
                    force=force,
                    keys=[p[3] for p in sub],
                )
                for (index, _p, _f, _k), result in zip(sub, results):
                    self._finish(index, result)
            except Exception:
                # Batch-level failure: fall back to one-by-one so a
                # single bad package poisons only itself.  The batch's
                # own error is counted; each package reports its own.
                count_suppressed_error("repo_batch_fallback")
                for index, path, _f, key in sub:
                    try:
                        result = self.warehouse.ingest_many(
                            [path], force=force, keys=[key]
                        )[0]
                        self._finish(index, result)
                    except Exception as exc:
                        self._finish(index, None, error=str(exc))

    def _finish(
        self,
        index: int,
        result: Optional[IngestResult],
        error: Optional[str] = None,
    ) -> None:
        with self._done:
            self._results[index] = result
            if error is not None:
                self._errors[index] = error
            self._completed += 1
            self._done.notify_all()
