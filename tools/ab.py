#!/usr/bin/env python3
"""A/B the end-to-end benchmark: another revision against this checkout.

    python tools/ab.py <rev> [--workload W] [--pairs N] [--seed S]

``<rev>`` (any git revision, usually the parent commit) is exported with
``git archive`` into a temporary directory; the other tree is a copy of
this checkout as it stands (every file git does not ignore, uncommitted
edits included) beside it.  Both trees are byte-compiled before the first
pair, so neither side's runs compile the package from source — where
``PYTHONDONTWRITEBYTECODE`` is set, a fresh tree would otherwise compile it
on every run while a checkout kept its old ``__pycache__``.  Each pair runs
``benchmarks/e2e/run.py --workload W --trace 0 --json`` once per tree, each
in a fresh process, and alternates which tree goes first.  Then it prints
one row per end-to-end metric of ``BENCHMARK.json``:

* both medians and the base's quartiles;
* the pairs the change won (better in its own direction, within the pair);
* the change's gap to the base median against the metric's bound;
* ``failed/attempted`` of each side, and whether every run's ``exact``
  block equals the base's first one.

A gain is claimable over at least 10 pairs, when the change wins at least
nine tenths of them and its median beats the base's by more than the
base's interquartile range.  The summary is appended as one JSON line to
``BENCH_HISTORY.jsonl`` at the root of this checkout.  Nothing under
``benchmarks/e2e/`` is changed.
"""

from __future__ import annotations

import argparse
import compileall
import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence

REPO = Path(__file__).resolve().parent.parent
HISTORY = REPO / "BENCH_HISTORY.jsonl"
WORKLOADS = ("sd_campaign", "mesh_storm", "measurement_store", "fleet_registry")
#: Fewer pairs than this decide no claim, however they fall.
MIN_PAIRS = 10


def quartiles(values: Sequence[float]):
    """``(q1, median, q3)``, inclusive method; one value is its own spread."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarise(base: List[dict], change: List[dict], contract: List[dict]) -> dict:
    """Fold paired result records (``run.py --json``) into one summary.

    ``base[i]`` and ``change[i]`` are pair *i*; *contract* is
    ``BENCHMARK.json``'s ``end_to_end`` list (``name``, ``better``,
    ``bound``).
    """
    if not base or len(base) != len(change):
        raise ValueError("need the same non-zero number of base and change runs")
    rows = []
    for metric in contract:
        name, lower = metric["name"], metric["better"] == "lower"
        a = [r["contract"][name]["value"] for r in base]
        b = [r["contract"][name]["value"] for r in change]
        q1, base_median, q3 = quartiles(a)
        change_median = statistics.median(b)
        won = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        gain = (base_median - change_median) if lower else (change_median - base_median)
        worse_by = -gain / abs(base_median) if base_median else 0.0
        rows.append({
            "metric": name,
            "unit": base[0]["contract"][name]["unit"],
            "better": metric["better"],
            "base_median": base_median,
            "base_q1": q1,
            "base_q3": q3,
            "change_median": change_median,
            "won": won,
            "pairs": len(a),
            "gain_beyond_iqr": gain > q3 - q1,
            "claimable": len(a) >= MIN_PAIRS and gain > q3 - q1 and won >= 0.9 * len(a),
            "worse_by": worse_by,
            "over_bound": worse_by > metric["bound"],
        })
    first = base[0]["exact"]
    return {
        "workload": base[0]["workload"],
        "seed": base[0]["seed"],
        "pairs": len(base),
        "rows": rows,
        "base_failed": sum(r["failed"] for r in base),
        "base_attempted": sum(r["attempted"] for r in base),
        "change_failed": sum(r["failed"] for r in change),
        "change_attempted": sum(r["attempted"] for r in change),
        "exact_equal": all(r["exact"] == first for r in base + change),
    }


def format_summary(summary: dict) -> List[str]:
    lines = [
        f"{summary['workload']}  seed {summary['seed']}  {summary['pairs']} pairs  "
        f"failed/attempted base {summary['base_failed']}/{summary['base_attempted']} "
        f"change {summary['change_failed']}/{summary['change_attempted']}  "
        f"exact {'equal' if summary['exact_equal'] else 'DIFFERENT'}",
        f"  {'metric':<14} {'base median':>12} {'base q1..q3':>22} {'change':>12} "
        f"{'won':>6} {'gap':>8}  verdict",
    ]
    for row in summary["rows"]:
        verdict = ("claimable gain" if row["claimable"]
                   else "OVER BOUND" if row["over_bound"] else "")
        lines.append(
            f"  {row['metric']:<14} {row['base_median']:>12.4g} "
            f"{row['base_q1']:>10.4g}..{row['base_q3']:<10.4g} {row['change_median']:>12.4g} "
            f"{row['won']:>3}/{row['pairs']:<2} {-100 * row['worse_by']:>+7.1f}%  {verdict}"
        )
    return lines


# ----------------------------------------------------------------------
# Running the pairs
# ----------------------------------------------------------------------
def export(rev: str, into: Path) -> str:
    """Write the committed tree of *rev* into *into*; returns its commit id."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    archive = into.parent / "base.tar"
    _git("archive", "--format=tar", "-o", str(archive), commit)
    with tarfile.open(archive) as tar:
        tar.extractall(into)
    archive.unlink()
    return commit


def copy_checkout(repo: Path, into: Path) -> None:
    """Copy every file of *repo*'s working tree that git does not ignore
    (tracked or not, as edited) into *into*: no ``__pycache__``, no outputs."""
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard", cwd=repo)
    for name in filter(None, listed.split("\0")):
        source = repo / name
        if source.is_file():  # skips a tracked file deleted from the working tree
            target = into / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def compile_tree(tree: Path) -> None:
    """Byte-compile every module of *tree* once, as both sides must start."""
    if not compileall.compile_dir(str(tree), quiet=1):
        sys.exit(f"ab.py: {tree}: byte-compiling failed")


def _git(*args: str, cwd: Path = REPO) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def run_once(tree: Path, workload: str, seed: int, out: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, str(tree / "benchmarks" / "e2e" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0", "--json", str(out)]
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL)
    if not out.exists():
        sys.exit(f"ab.py: {tree}: {workload} exited with {proc.returncode} and no result")
    result = json.loads(out.read_text())
    out.unlink()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the base revision, e.g. HEAD~1")
    parser.add_argument("--workload", choices=WORKLOADS, default="sd_campaign")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=2014)
    args = parser.parse_args(argv)

    contract = json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]
    scratch = Path(tempfile.mkdtemp(prefix="ab-"))
    try:
        base_tree, change_tree = scratch / "base", scratch / "change"
        base_commit = export(args.rev, base_tree)
        copy_checkout(REPO, change_tree)
        for tree in (base_tree, change_tree):
            compile_tree(tree)
        base, change = [], []
        for pair in range(args.pairs):
            order = [(base_tree, base), (change_tree, change)]
            for tree, results in order if pair % 2 == 0 else order[::-1]:
                results.append(run_once(tree, args.workload, args.seed, scratch / "out.json"))
            print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    summary = summarise(base, change, contract)
    print("\n".join(format_summary(summary)))
    head = _git("rev-parse", "HEAD")
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    record: Dict = {
        "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "base": base_commit,
        "change": head + ("+dirty" if dirty else ""),
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        **summary,
    }
    with HISTORY.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
