#!/usr/bin/env python
"""Gate CI on coverage: a hard floor for the fabric, a ratchet repo-wide.

Reads a ``coverage json`` report (coverage.py's machine format) and
enforces two rules:

* ``src/repro/fabric/`` line coverage must be at least ``--fabric-min``
  (default 85%) — the distributed-campaign layer is the code whose
  failure modes are hardest to see in review, so its tests carry a
  contractual floor.
* the registry discovery family (``src/repro/sd/registry.py``,
  ``broker.py``, ``gossip.py``) together with the SD mechanics it shares
  with the other families (``agent.py``: sender, transaction, expiry
  loop, registrar helpers) must be at least ``--registry-min`` (default
  85%) — same rationale: convergence and expiry bugs hide in the
  branches tests skip.
* repo-wide line coverage must not regress more than
  ``--max-regression`` points (default 2.0) below the committed
  baseline (``coverage-baseline.json``).  A ``null`` baseline total
  skips the ratchet — that's the bootstrap state before the first CI
  run records a measurement; refresh with ``--update``.

Exit 0 when both hold, 1 otherwise; always prints the measured numbers
so the CI log documents the trend.
"""

import argparse
import json
import sys
from pathlib import Path

FABRIC_PREFIX = ("src/repro/fabric/", "src\\repro\\fabric\\")
REGISTRY_PREFIX = (
    "src/repro/sd/registry.py",
    "src/repro/sd/broker.py",
    "src/repro/sd/gossip.py",
    "src/repro/sd/agent.py",
    "src\\repro\\sd\\registry.py",
    "src\\repro\\sd\\broker.py",
    "src\\repro\\sd\\gossip.py",
    "src\\repro\\sd\\agent.py",
)


def tree_percent(report, prefixes):
    covered = statements = 0
    for path, entry in report.get("files", {}).items():
        normalized = path.replace("\\", "/")
        if not any(normalized.startswith(p.replace("\\", "/")) for p in prefixes):
            continue
        summary = entry["summary"]
        covered += summary["covered_lines"]
        statements += summary["num_statements"]
    if statements == 0:
        return None
    return 100.0 * covered / statements


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", type=Path, nargs="?", default=Path("coverage.json"),
                        help="coverage.py JSON report (coverage json -o ...)")
    parser.add_argument("--baseline", type=Path, default=Path("coverage-baseline.json"))
    parser.add_argument("--fabric-min", type=float, default=85.0)
    parser.add_argument("--registry-min", type=float, default=85.0)
    parser.add_argument("--max-regression", type=float, default=2.0)
    parser.add_argument("--update", action="store_true",
                        help="write the measured totals back to the baseline file")
    args = parser.parse_args()

    report = json.loads(args.report.read_text(encoding="utf-8"))
    total = report["totals"]["percent_covered"]
    fabric = tree_percent(report, FABRIC_PREFIX)
    print(f"repo-wide line coverage:  {total:.2f}%")
    if fabric is None:
        print("src/repro/fabric/ not present in the report", file=sys.stderr)
        return 1
    print(f"src/repro/fabric/ coverage: {fabric:.2f}%")
    registry = tree_percent(report, REGISTRY_PREFIX)
    if registry is None:
        print("registry family (sd/registry|broker|gossip|agent) not present in the report",
              file=sys.stderr)
        return 1
    print(f"sd registry-family coverage: {registry:.2f}%")

    failures = []
    if fabric < args.fabric_min:
        failures.append(
            f"fabric coverage {fabric:.2f}% is below the {args.fabric_min:.0f}% floor"
        )
    if registry < args.registry_min:
        failures.append(
            f"registry-family coverage {registry:.2f}% is below the "
            f"{args.registry_min:.0f}% floor"
        )

    baseline_total = None
    if args.baseline.exists():
        baseline = json.loads(args.baseline.read_text(encoding="utf-8"))
        baseline_total = baseline.get("total_percent")
    if baseline_total is None:
        print("baseline total is null -- regression ratchet skipped (bootstrap)")
    else:
        floor = baseline_total - args.max_regression
        print(f"baseline {baseline_total:.2f}% (ratchet floor {floor:.2f}%)")
        if total < floor:
            failures.append(
                f"repo-wide coverage {total:.2f}% regressed more than "
                f"{args.max_regression:.1f} points below the {baseline_total:.2f}% baseline"
            )

    if args.update:
        args.baseline.write_text(
            json.dumps(
                {
                    "total_percent": round(total, 2),
                    "fabric_percent": round(fabric, 2),
                    "registry_percent": round(registry, 2),
                    "note": "refreshed by tools/check_coverage.py --update",
                },
                indent=2,
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )
        print(f"baseline updated: {args.baseline}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
