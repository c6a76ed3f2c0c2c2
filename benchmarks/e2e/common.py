"""Helpers shared by the four workloads: op accounting, sampling, sizes."""

from __future__ import annotations

import os
import resource
import statistics
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

#: The testbed (mesh placement) is the same for every ``--seed``; the seed
#: varies the experiment run on it.  Otherwise the amount of work — edges,
#: path lengths, captured packets — would move with the seed by more than
#: any regression bound.
TESTBED_SEED = 2014

#: Node / record counts per ``--scale``.  ``full`` is what BENCHMARK.json
#: measures; ``smoke`` keeps every code path but finishes in seconds.
SCALES: Dict[str, Dict[str, Any]] = {
    "full": {
        "sd_env_count": 28, "sd_replications": 3,
        "storm_nodes": 1000, "storm_radius": 0.10, "storm_capacity": 20e6,
        "storm_ticks": 20, "storm_duration": 3.85,
        "store_runs": 50, "store_events": 30_000, "store_packages": 40,
        "fleet_env_count": 300, "fleet_replications": 2, "fleet_users": 1000,
    },
    "smoke": {
        "sd_env_count": 8, "sd_replications": 2,
        "storm_nodes": 100, "storm_radius": 0.22, "storm_capacity": 2e6,
        "storm_ticks": 10, "storm_duration": 3.0,
        "store_runs": 10, "store_events": 10_000, "store_packages": 8,
        "fleet_env_count": 60, "fleet_replications": 2, "fleet_users": 500,
    },
}


class Ops:
    """Counts operations attempted and failed; every output check is one op."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def add(self, attempted: int, failed: int, what: str) -> None:
        """Fold in a batch of program operations (runs, packages)."""
        self.attempted += attempted
        if failed:
            self.failed += failed
            self.failures.append(f"{what}: {failed} of {attempted} failed")


class Samples:
    """Named timing samples collected across reps; medians with counts."""

    def __init__(self) -> None:
        self.values: Dict[str, List[float]] = {}

    def add(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(value)

    def extend(self, name: str, values: Iterable[float]) -> None:
        self.values.setdefault(name, []).extend(values)

    def median(self, name: str) -> float:
        values = self.values.get(name)
        return statistics.median(values) if values else 0.0

    def n(self, name: str) -> int:
        return len(self.values.get(name, ()))

    def percentile(self, name: str, p: float) -> float:
        values = sorted(self.values.get(name, ()))
        if not values:
            return 0.0
        return values[min(len(values) - 1, int(p * len(values)))]


class ExactCounts:
    """Counts that must repeat bit-for-bit: across reps, traced or not."""

    def __init__(self, ops: Ops) -> None:
        self.ops = ops
        self.first: Dict[str, Any] = {}

    def observe(self, name: str, value: Any) -> None:
        if name not in self.first:
            self.first[name] = value
            return
        self.ops.check(
            self.first[name] == value,
            f"exact count {name} changed between reps: {self.first[name]!r} != {value!r}",
        )

    def observe_all(self, counts: Dict[str, Any]) -> None:
        for name in sorted(counts):
            self.observe(name, counts[name])


def tree_bytes(root) -> int:
    """Bytes of every regular file under *root* (0 when it is absent)."""
    total = 0
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(dirpath, name))
            except OSError:
                pass
    return total


def file_bytes(path) -> int:
    path = Path(path)
    return path.stat().st_size if path.exists() else 0


def peak_rss_mib() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def journal_lines(path) -> int:
    """Appended records in a JSONL ledger (0 when it is absent)."""
    try:
        with open(path, "rb") as fh:
            return sum(1 for _ in fh)
    except OSError:
        return 0


def phase_seconds(telemetry: Optional[Dict[str, Any]], phase: str) -> float:
    """Sum of one master phase's wall seconds from a campaign's telemetry."""
    stats = ((telemetry or {}).get("phases") or {}).get(phase) or {}
    return float(stats.get("mean", 0.0)) * float(stats.get("count", 0))


def safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


def pct_gap(first: float, second: float, better: str) -> float:
    """How much worse *second* is than *first*, as a share of *first*."""
    if not first:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change
