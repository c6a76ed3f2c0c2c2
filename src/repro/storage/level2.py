"""Storage level 2: the intermediate filesystem hierarchy.

Sec. IV-F: *"The second level is the intermediate storage for all concrete
experiment data: experiment results and the software artifacts used during
execution.  Each log file and measurement is stored corresponding to a run
identifier and associated to the node it originates from.  Currently,
ExCovery uses a special hierarchy on a file system to store second level
data."*

Layout::

    <root>/
      experiment.xml              # level-1 description as executed
      plan.json                   # exact treatment sequence
      master/
        topology_before.json
        topology_after.json
        timesync/run_<id>.json    # per-run offset measurements
        runinfo/run_<id>.json     # per-run start time and treatment
        measurements/<name>.json  # experiment-scope measurements
        traces.jsonl              # experiment-scope span records
      runs/<run id>/
        events.jsonl              # every node's events, one frame each
        packets.jsonl
        traces.jsonl              # harness span records -> L3 RunTraces
        extra/<node>/<plugin>.json  # plugins' separate storage location
      nodes/
        logs.jsonl                # one frame per node log (last one wins)
        experiment_events.jsonl   # experiment-scope events of every node
      eefiles/<name>              # executables/artefacts (EEFiles table)
      quarantine/runs/<run id>/<stream>   # salvage mode's bad-frame sidecar

Everything is JSON-on-disk: human-inspectable, diff-able, and exactly what
the conditioning stage consumes.  A run costs a constant handful of files
whatever the node count: "associated to the node it originates from" lives
in each frame, not in a directory per node.

The files under ``runs/`` and ``nodes/`` are **packed and CRC-framed**:
each line is ``<node>\t<json>\t<crc32 as 8 hex digits>``, the frame of
:mod:`repro.durable` (whose :class:`~repro.durable.DurableLog` keeps
``master/*.jsonl``).  An empty batch writes a *marker*
frame (empty JSON part): the node took part and had nothing to report.
A record's JSON text is produced exactly once, by :func:`encode_block` on
the node that measured it (``NodeManager.collect_run``); the block crosses
the control channel as one string and :meth:`RunWriter.add_block` frames
its lines verbatim — the master never parses or re-encodes a collected
record (conditioning is the first and only parser).  Master-side records
take :meth:`RunWriter.append`; both paths end in the one
:func:`repro.durable.frame`.
The frame is what lets salvage mode (DESIGN.md §11) tell an intact record
from a truncated or bit-flipped one: readers hard-fail on the first corrupt
frame (the default — corruption must never pass silently) or, with
``salvage=True``, quarantine the bad lines into the ``quarantine/`` sidecar
and keep conditioning the intact rest.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, BinaryIO, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.errors import StorageError
from repro.durable import DurableLog, decode_record, encode_record, frame, iter_frames

__all__ = ["Level2Store", "RunWriter", "encode_block", "encode_json"]

#: A bad line: ``(line number, node prefix, reason, raw text)``.
_BadLine = Tuple[int, str, str, str]


def _frames(node_id: str, values: List[Any]) -> List[bytes]:
    """One framed line per value; a lone marker when there are none."""
    return [frame(node_id, encode_record(v)) for v in values] or [frame(node_id, "")]


def encode_block(records: Iterable[Any]) -> str:
    """The level-2 text of *records*, one line each (``""`` for none).

    This is what a node ships: pure ASCII (``ensure_ascii`` escapes every
    control and non-ASCII character), so no transport's text normalisation
    can alter it and the writers frame each line as it arrived.
    """
    return "\n".join(map(encode_record, records))


def _block_frames(node_id: str, block: str) -> List[bytes]:
    """One framed line per block line; ``""`` splits into the lone marker."""
    return [frame(node_id, line) for line in block.split("\n")]


def _scan_frames(path: Path) -> Tuple[Dict[str, List[Any]], List[_BadLine]]:
    """Parse a packed file into ``({node: [values]}, bad lines)``; every
    node with an intact frame gets a key, marker frames and frames whose
    JSON is bad included."""
    groups: Dict[str, List[Any]] = {}
    bad: List[_BadLine] = []
    # {node key bytes: its group}; each distinct key is decoded once per file.
    by_key: Dict[bytes, List[Any]] = {}
    for lineno, line, node, body, reason in iter_frames(path):
        if reason is None:
            try:
                values = by_key.get(node)
                if values is None:
                    values = by_key[node] = groups.setdefault(node.decode("utf-8"), [])
                if body:
                    values.append(decode_record(body))
                continue
            except ValueError:  # includes UnicodeDecodeError
                reason = "bad_json"
        bad.append((lineno, node.decode("utf-8", "replace"), reason,
                    line.decode("utf-8", "backslashreplace")))
    return groups, bad


def _open_append(path: Path) -> BinaryIO:
    try:
        return open(path, "ab")
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        return open(path, "ab")


def _append_lines(path: Path, frames: List[bytes]) -> None:
    with _open_append(path) as fh:
        fh.write(b"\n".join(frames) + b"\n")


def encode_json(data: Any) -> str:
    """The level-2 text of a whole-file JSON document."""
    # json.dumps takes the C encoder; json.dump(fh) would iterate the
    # pure-Python one chunk by chunk for the same text.
    return json.dumps(data, indent=None, separators=(",", ":"), sort_keys=True)


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _write_json(path: Path, data: Any) -> None:
    _write_text(path, encode_json(data))


def _read_json(path: Path) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_json_dir(directory: Path) -> Dict[str, Any]:
    """``{file stem: content}`` of a directory's ``*.json`` files."""
    return {path.stem: _read_json(path) for path in sorted(directory.glob("*.json"))}


class RunWriter:
    """Buffered ingest for one run's collection phase.

    The master collects a run's events and packets node by node.  A
    ``RunWriter`` keeps one append handle per *stream* (at most three,
    whatever the node count) open for the duration of the collection and
    writes framed records in batches, so per-record cost is one JSON
    encode (none for a block a node already encoded) plus an amortized
    buffered write.

    Use as a context manager (or call :meth:`close`); records are only
    guaranteed on disk after the writer is closed.  Appending
    an empty batch writes a marker frame, so the node still shows up in
    :meth:`Level2Store.node_ids`.
    """

    #: Buffered lines per stream before an actual file write (tests
    #: patch it to cross the threshold with a handful of records).
    FLUSH_RECORDS = 1024

    def __init__(self, store: "Level2Store", run_id: int) -> None:
        self.store = store
        self.run_id = int(run_id)
        self._handles: Dict[str, BinaryIO] = {}
        self._buffers: Dict[str, List[bytes]] = {}
        self._closed = False
        #: Total records accepted (handy for ingest benchmarks).
        self.records_written = 0

    # ------------------------------------------------------------------
    def _open(self, stream: str) -> List[bytes]:
        if self._closed:
            raise StorageError(f"RunWriter for run {self.run_id} is closed")
        self._handles[stream] = _open_append(self.store._run_dir(self.run_id) / stream)
        self._buffers[stream] = buffer = []
        return buffer

    def append(self, node_id: str, stream: str, records: List[Dict[str, Any]]) -> None:
        buffer = self._buffers.get(stream)
        if buffer is None:
            buffer = self._open(stream)
        buffer.extend(_frames(node_id, records))
        self.records_written += len(records)
        if len(buffer) >= self.FLUSH_RECORDS:
            self._flush_stream(stream)

    def add_block(self, node_id: str, stream: str, block: str) -> None:
        """Frame a block a node encoded (:func:`encode_block`) line by line,
        verbatim: the bytes :meth:`append` writes for the same records."""
        buffer = self._buffers.get(stream)
        if buffer is None:
            buffer = self._open(stream)
        frames = _block_frames(node_id, block)
        buffer.extend(frames)
        self.records_written += len(frames) if block else 0
        if len(buffer) >= self.FLUSH_RECORDS:
            self._flush_stream(stream)

    def add_events(self, node_id: str, records: List[Dict[str, Any]]) -> None:
        self.append(node_id, "events.jsonl", records)

    def add_packets(self, node_id: str, records: List[Dict[str, Any]]) -> None:
        self.append(node_id, "packets.jsonl", records)

    def add_traces(self, node_id: str, records: List[Dict[str, Any]]) -> None:
        """Harness span records (:mod:`repro.obs.trace`) for this run.

        Same CRC-framed buffered path as events/packets; the records feed
        the L3 ``RunTraces`` extension table, never Table I.
        """
        self.append(node_id, "traces.jsonl", records)

    # ------------------------------------------------------------------
    def _flush_stream(self, stream: str) -> None:
        buffer = self._buffers[stream]
        if buffer:
            self._handles[stream].write(b"\n".join(buffer) + b"\n")
            buffer.clear()

    def close(self) -> None:
        if self._closed:
            return
        try:
            for stream, fh in self._handles.items():
                self._flush_stream(stream)
                fh.close()
        finally:
            self._handles.clear()
            self._buffers.clear()
            self._closed = True

    def __enter__(self) -> "RunWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Level2Store:
    """One execution's intermediate storage rooted at a directory.

    With ``salvage=True`` the run-stream readers quarantine corrupt
    frames (truncated tails, CRC mismatches) instead of raising: the bad
    raw lines are copied under ``quarantine/`` at their original relative
    path, a per-(run, node, stream) salvage record counts what was kept
    and dropped, and conditioning continues over the intact records.  A
    bad line is attributed to the node its prefix names when that node
    has intact frames in the same stream, else to ``"*"``.  The default
    (``salvage=False``) hard-fails on the first corrupt frame — partial
    data must never flow into level 3 unannounced.
    """

    def __init__(self, root, salvage: bool = False) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        if any(p.is_dir() for p in (self.root / "nodes").glob("*")):
            raise StorageError(f"{self.root} uses the retired per-node layout "
                               "(nodes/<node>/runs/<run>/); only packed runs/<run>/ is read")
        self.salvage = bool(salvage)
        #: ``{(run, node, stream): salvage record}`` from this instance's
        #: salvage-mode reads (also mirrored to quarantine/ on disk).
        self._salvage: Dict[Tuple[int, str, str], Dict[str, Any]] = {}
        #: ``{path: ((size, mtime), node keys)}`` of the run streams this
        #: instance read with no bad line, so :meth:`node_ids` need not scan
        #: them again while they are unchanged.
        self._scanned: Dict[Path, Tuple[Tuple[int, int], Set[str]]] = {}

    # ------------------------------------------------------------------
    # Level-1 artefacts
    # ------------------------------------------------------------------
    def write_description(self, xml_text: str) -> None:
        (self.root / "experiment.xml").write_text(xml_text, encoding="utf-8")

    def read_description(self) -> str:
        path = self.root / "experiment.xml"
        if not path.exists():
            raise StorageError(f"no experiment.xml under {self.root}")
        return path.read_text(encoding="utf-8")

    def write_plan(self, plan_records: List[Dict[str, Any]]) -> None:
        _write_json(self.root / "plan.json", plan_records)

    def read_plan(self) -> List[Dict[str, Any]]:
        return _read_json(self.root / "plan.json")

    # ------------------------------------------------------------------
    # Master-side measurements
    # ------------------------------------------------------------------
    def write_topology(self, phase: str, snapshot: Any) -> None:
        """*snapshot*: the measurement, or its :func:`encode_json` text."""
        if phase not in ("before", "after"):
            raise StorageError(f"topology phase must be before/after, got {phase!r}")
        text = snapshot if isinstance(snapshot, str) else encode_json(snapshot)
        _write_text(self.root / "master" / f"topology_{phase}.json", text)

    def write_timesync(self, run_id: int, measurements: Dict[str, Dict[str, Any]]) -> None:
        _write_json(self.root / "master" / "timesync" / f"run_{run_id}.json", measurements)

    def read_timesync(self, run_id: int) -> Dict[str, Dict[str, Any]]:
        path = self.root / "master" / "timesync" / f"run_{run_id}.json"
        if not path.exists():
            raise StorageError(f"no timesync data for run {run_id}")
        return _read_json(path)

    def write_experiment_measurement(self, name: str, content: Any) -> None:
        _write_json(self.root / "master" / "measurements" / f"{name}.json", content)

    def experiment_measurements(self) -> Dict[str, Any]:
        return _read_json_dir(self.root / "master" / "measurements")

    # ------------------------------------------------------------------
    # Per-node data (experiment scope)
    # ------------------------------------------------------------------
    def _read_node_frames(self, name: str) -> Dict[str, List[Any]]:
        path = self.root / "nodes" / name
        groups, bad = _scan_frames(path)
        if bad:
            raise StorageError(
                f"corrupt frame in {path} (line {bad[0][0]}: {bad[0][2]})"
            )
        return groups

    def read_node_logs(self) -> Dict[str, str]:
        """``{node: log text}`` for every node that stored a log; a node's
        latest frame wins (a resumed experiment collects logs again)."""
        frames = self._read_node_frames("logs.jsonl")
        return {node: texts[-1] for node, texts in frames.items() if texts}

    def write_node_collections(self, logs: Dict[str, str], event_blocks: Dict[str, str]) -> None:
        """The experiment-exit collection, ``{node: log text}`` and ``{node:
        experiment-events block}`` in collection order: one append per file."""
        nodes = self.root / "nodes"
        if logs:
            _append_lines(nodes / "logs.jsonl", [
                frame(node, encode_record(text)) for node, text in logs.items()])
        if event_blocks:
            _append_lines(nodes / "experiment_events.jsonl", [
                f for node, block in event_blocks.items() for f in _block_frames(node, block)])

    # ------------------------------------------------------------------
    # Per-run data
    # ------------------------------------------------------------------
    def _run_dir(self, run_id: int) -> Path:
        return self.root / "runs" / str(run_id)

    def write_run_data(
        self,
        node_id: str,
        run_id: int,
        events: List[Dict[str, Any]],
        packets: List[Dict[str, Any]],
    ) -> None:
        with self.run_writer(run_id) as writer:
            writer.add_events(node_id, events)
            writer.add_packets(node_id, packets)

    def run_writer(self, run_id: int) -> RunWriter:
        """Open a buffered :class:`RunWriter` for *run_id*'s collection."""
        return RunWriter(self, run_id)

    def write_extra_measurement(
        self, node_id: str, run_id: int, plugin: str, content: Any
    ) -> None:
        """Plugins' 'separate storage location on the node' (Sec. IV-B5)."""
        _write_json(self._run_dir(run_id) / "extra" / node_id / f"{plugin}.json", content)

    def read_run_stream(self, run_id: int, stream: str) -> Dict[str, List[Dict[str, Any]]]:
        """One packed run stream as ``{node: records in file order}``,
        honouring the store's salvage mode.  Every call scans the file and
        returns a fresh dict the store keeps no reference to, so a consumer
        that pops node after node never holds a run's records twice."""
        path = self._run_dir(run_id) / stream
        try:
            st = path.stat()  # taken first: a later write only forces a rescan
        except FileNotFoundError:
            st = None
        groups, bad = _scan_frames(path)
        if st is not None and not bad:
            self._scanned[path] = ((st.st_size, st.st_mtime_ns), set(groups))
        if bad and not self.salvage:
            raise StorageError(
                f"corrupt record in {path} (line {bad[0][0]}: {bad[0][2]}); "
                "re-run conditioning with --salvage to quarantine it"
            )
        if bad:
            self._quarantine(int(run_id), stream, groups, bad)
        return groups

    def read_run_traces(self, node_id: str, run_id: int) -> List[Dict[str, Any]]:
        """Span records one node (usually the master) persisted for a run."""
        return self.read_run_stream(run_id, "traces.jsonl").get(node_id, [])

    def _quarantine(
        self, run_id: int, stream: str, groups: Dict[str, List[Any]], bad: List[_BadLine]
    ) -> None:
        """Record one stream's corrupt lines in the quarantine sidecar."""
        # A prefix is only trusted when intact frames of this stream name
        # the same node; a damaged prefix must not invent one.
        bad = [(lineno, prefix if prefix in groups else "*", reason, line)
               for lineno, prefix, reason, line in bad]
        # Rewritten whole on every read, so re-reading never duplicates lines.
        sidecar = self.root / "quarantine" / "runs" / str(run_id) / stream
        sidecar.parent.mkdir(parents=True, exist_ok=True)
        sidecar.write_text("".join(
            encode_record({"line": lineno, "node": node_id, "reason": reason, "raw": line}) + "\n"
            for lineno, node_id, reason, line in bad), encoding="utf-8")
        by_node: Dict[str, List[str]] = {}
        for _, node_id, reason, _ in bad:
            by_node.setdefault(node_id, []).append(reason)
        for node_id, reasons in by_node.items():
            self._salvage[(run_id, node_id, stream)] = {
                "run_id": run_id,
                "node": node_id,
                "stream": stream,
                "kept": len(groups.get(node_id, ())),
                "dropped": len(reasons),
                "reason": ",".join(sorted(set(reasons))),
            }

    def read_run_extra_measurements(self, run_id: int) -> Dict[str, Dict[str, Any]]:
        """``{node: {plugin: content}}`` for one run, nodes ascending."""
        return {
            directory.name: _read_json_dir(directory)
            for directory in sorted((self._run_dir(run_id) / "extra").glob("*"))
        }

    # ------------------------------------------------------------------
    # Harness observability (spans outside any run)
    # ------------------------------------------------------------------
    @property
    def experiment_trace_path(self) -> Path:
        return self.root / "master" / "traces.jsonl"

    def append_experiment_traces(self, records: List[Dict[str, Any]]) -> None:
        """Experiment-scope spans (``experiment_init``, collection, ...)."""
        DurableLog(self.experiment_trace_path).append(records, sync=False)

    def read_experiment_traces(self) -> List[Dict[str, Any]]:
        return list(DurableLog(self.experiment_trace_path).replay())

    # ------------------------------------------------------------------
    # Salvage (DESIGN.md §11)
    # ------------------------------------------------------------------
    def salvage_records(self) -> List[Dict[str, Any]]:
        """Per-(run, node, stream) salvage records from this instance's
        reads, ordered for stable L3 insertion."""
        return [self._salvage[key] for key in sorted(self._salvage)]

    def write_salvage_report(self) -> Optional[Path]:
        """Summarize this instance's salvage reads into
        ``quarantine/salvage_report.json`` (None when nothing was salvaged)."""
        records = self.salvage_records()
        if not records:
            return None
        report_path = self.root / "quarantine" / "salvage_report.json"
        _write_json(
            report_path,
            {
                "records": records,
                "total_kept": sum(r["kept"] for r in records),
                "total_dropped": sum(r["dropped"] for r in records),
            },
        )
        return report_path

    # ------------------------------------------------------------------
    # Run metadata (start times)
    # ------------------------------------------------------------------
    def write_run_info(self, run_id: int, info: Dict[str, Any]) -> None:
        _write_json(self.root / "master" / "runinfo" / f"run_{run_id}.json", info)

    def read_run_info(self, run_id: int) -> Dict[str, Any]:
        path = self.root / "master" / "runinfo" / f"run_{run_id}.json"
        if not path.exists():
            raise StorageError(f"no run info for run {run_id}")
        return _read_json(path)

    # ------------------------------------------------------------------
    # EE files (artefacts; feeds the EEFiles table)
    # ------------------------------------------------------------------
    def write_eefile(self, name: str, content: str) -> None:
        path = self.root / "eefiles" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")

    def eefiles(self) -> Dict[str, str]:
        directory = self.root / "eefiles"
        out: Dict[str, str] = {}
        if directory.exists():
            for path in sorted(directory.rglob("*")):
                if path.is_file():
                    out[str(path.relative_to(directory))] = path.read_text(encoding="utf-8")
        return out

    # ------------------------------------------------------------------
    # Enumeration (drives conditioning)
    # ------------------------------------------------------------------
    def node_ids(self) -> List[str]:
        """Every node named by an intact frame (markers included) or an
        extra-measurement directory, ascending.

        A run stream this instance already read whole and unchanged since
        is not scanned again: with no bad line, its groups are exactly the
        node keys of its intact frames."""
        nodes: Set[str] = set()
        for path in [*self.root.glob("nodes/*.jsonl"), *self.root.glob("runs/*/*.jsonl")]:
            version, known = self._scanned.get(path, (None, None))
            if known is not None:
                st = path.stat()
                if (st.st_size, st.st_mtime_ns) == version:
                    nodes.update(known)
                    continue
            framed = {node for _, _, node, _, reason in iter_frames(path) if reason is None}
            nodes.update(node.decode("utf-8", "replace") for node in framed)
        nodes.update(p.name for p in self.root.glob("runs/*/extra/*"))
        return sorted(nodes)

    def run_ids(self) -> List[int]:
        return sorted(int(p.name) for p in self.root.glob("runs/*") if p.name.isdigit())
