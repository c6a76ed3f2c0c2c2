"""The A/B tool's summariser (``tools/ab.py``), on synthetic results.

The tool's verdicts decide whether a performance claim holds, so the fold
from paired ``run.py --json`` records to medians, quartiles, pairs won and
bound checks is tested here; nothing runs the benchmark.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[2] / "tools" / "ab.py"
spec = importlib.util.spec_from_file_location("ab_tool", TOOL)
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

CONTRACT = [
    {"name": "pipeline_s", "better": "lower", "bound": 0.25},
    {"name": "work_per_s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.2},
]


def _result(pipeline, work, rss, exact=None, failed=0):
    values = {"pipeline_s": (pipeline, "s"), "work_per_s": (work, "1/s"),
              "peak_rss_mb": (rss, "MiB")}
    return {
        "workload": "sd_campaign", "seed": 2014, "attempted": 4, "failed": failed,
        "exact": {"digest": "abc"} if exact is None else exact,
        "contract": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }


def _rows(summary):
    return {row["metric"]: row for row in summary["rows"]}


def test_a_clear_rss_gain_is_claimable_and_times_that_held_are_not():
    base = [_result(0.50 + 0.01 * i, 100 - i, 110 + 0.2 * i) for i in range(10)]
    change = [_result(0.50 + 0.01 * (9 - i), 100 - (9 - i), 64 + 0.2 * i) for i in range(10)]
    summary = ab.summarise(base, change, CONTRACT)
    rows = _rows(summary)
    rss = rows["peak_rss_mb"]
    assert (rss["base_median"], rss["change_median"]) == (pytest.approx(110.9),
                                                          pytest.approx(64.9))
    assert rss["base_q1"] == pytest.approx(110.45) and rss["base_q3"] == pytest.approx(111.35)
    assert rss["won"] == 10 and rss["claimable"] and not rss["over_bound"]
    assert rss["worse_by"] == pytest.approx(-46 / 110.9)
    # Mirror-image times: equal medians, half the pairs each, no claim.
    for name in ("pipeline_s", "work_per_s"):
        assert rows[name]["won"] == 5 and not rows[name]["claimable"]
        assert rows[name]["worse_by"] == pytest.approx(0.0)
    assert summary["exact_equal"] and summary["pairs"] == 10
    assert (summary["base_failed"], summary["change_attempted"]) == (0, 40)


def test_direction_bound_failures_and_exact_blocks_are_reported():
    base = [_result(1.0, 100.0, 100.0) for _ in range(3)]
    change = [_result(1.3, 80.0, 100.0), _result(1.3, 70.0, 100.0),
              _result(1.3, 125.0, 100.0, exact={"digest": "xyz"}, failed=1)]
    summary = ab.summarise(base, change, CONTRACT)
    rows = _rows(summary)
    assert rows["pipeline_s"]["over_bound"] and rows["pipeline_s"]["won"] == 0
    assert rows["pipeline_s"]["worse_by"] == pytest.approx(0.3)
    # Higher is better: the one pair at 125 is the only win, and the
    # median (80) is 20 % worse, inside the 25 % bound.
    assert rows["work_per_s"]["won"] == 1 and not rows["work_per_s"]["over_bound"]
    assert rows["work_per_s"]["worse_by"] == pytest.approx(0.2)
    # A tie wins nothing and gains nothing beyond a zero spread.
    assert rows["peak_rss_mb"]["won"] == 0 and not rows["peak_rss_mb"]["gain_beyond_iqr"]
    # Three clean wins far beyond the spread are still too few pairs to claim.
    faster = ab.summarise(base, [_result(0.5, 200.0, 50.0) for _ in range(3)], CONTRACT)
    assert all(r["won"] == 3 and r["gain_beyond_iqr"] for r in faster["rows"])
    assert not any(r["claimable"] for r in faster["rows"])
    assert summary["change_failed"] == 1 and not summary["exact_equal"]
    lines = ab.format_summary(summary)
    assert "exact DIFFERENT" in lines[0] and "change 1/12" in lines[0]
    assert any("pipeline_s" in line and "OVER BOUND" in line for line in lines)


def test_unpaired_runs_are_refused():
    with pytest.raises(ValueError):
        ab.summarise([_result(1, 1, 1)], [], CONTRACT)
    assert ab.quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_both_trees_are_prepared_alike(tmp_path):
    """The change side is a copy beside the base export, not the checkout:
    neither keeps a ``__pycache__`` the other lacks, and both are compiled
    before the first pair, so no side compiles the package in its runs."""
    import subprocess

    repo = tmp_path / "repo"
    (repo / "pkg" / "__pycache__").mkdir(parents=True)
    (repo / "pkg" / "__init__.py").write_text("X = 1\n")
    (repo / "pkg" / "__pycache__" / "stale.cpython-311.pyc").write_bytes(b"stale")
    (repo / ".gitignore").write_text("__pycache__/\nout/\n")
    (repo / "out").mkdir()
    (repo / "out" / "result.json").write_text("{}")
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    subprocess.run(["git", "-C", str(repo), "add", "pkg/__init__.py", ".gitignore"], check=True)
    (repo / "pkg" / "__init__.py").write_text("X = 2\n")  # an uncommitted edit
    (repo / "pkg" / "new.py").write_text("Y = 3\n")  # an untracked module

    change = tmp_path / "ab" / "change"
    ab.copy_checkout(repo, change)
    files = sorted(str(p.relative_to(change)) for p in change.rglob("*") if p.is_file())
    assert files == [".gitignore", "pkg/__init__.py", "pkg/new.py"]
    assert (change / "pkg" / "__init__.py").read_text() == "X = 2\n"

    ab.compile_tree(change)
    compiled = sorted(p.name.split(".")[0] for p in (change / "pkg" / "__pycache__").glob("*.pyc"))
    assert compiled == ["__init__", "new"]
