"""Layering: storage and the L4 warehouse sit below campaign and fabric.

Level 3 owns the Table-I format — schema, reader, per-run copy, digest —
so neither writing a package nor opening the warehouse may load the
layers that merely *use* it.  Checked in a fresh interpreter:
``sys.modules`` of the test process is already full.

The numeric stack loads where it is used: numpy and scipy where a
statistic is, and networkx nowhere (a topology keeps its own adjacency).
So the CLI, the warehouse, the fleet coordinator, a level-3 write and a
whole simulated experiment load none of it (DESIGN.md §3).

And ``src/repro`` ships nothing that only a test would load: what exists
to be compared against lives in ``tests/oracles`` (DESIGN.md §7).
"""

import ast
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

REPORT_UPPER_LAYERS = """
import sys
print(sorted(m for m in sys.modules if m.startswith(("repro.campaign", "repro.fabric"))))
"""

REPORT_NUMERIC_STACK = """
import sys
print([m for m in ("numpy", "scipy", "networkx") if m in sys.modules])
"""


def _run_fresh(body: str, report: str, cwd) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(body) + report],
        env={"PYTHONPATH": str(SRC), "PATH": ""},
        cwd=str(cwd),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_importing_the_warehouse_loads_no_campaign_or_fabric_module(tmp_path):
    assert _run_fresh("import repro.repo", REPORT_UPPER_LAYERS, tmp_path) == "[]"


WRITE_LEVEL3 = """
        from repro.storage.level2 import Level2Store
        from repro.storage.level3 import read_stamped_digest, store_level3

        store = Level2Store("l2")
        store.write_description('<experiment name="tiny" seed="1"><platform/></experiment>')
        store.write_plan([{"run_id": 0, "treatment": {}}])
        store.write_timesync(0, {})
        store.write_run_info(0, {"run_id": 0, "start_time": 0.0, "treatment": {}})
        store.write_run_data("n0", 0, [{"name": "e", "node": "n0", "local_time": 1.0}], [])
        assert read_stamped_digest(store_level3(store, "tiny.db")) is not None
"""


def test_writing_a_level3_package_loads_no_campaign_or_fabric_module(tmp_path):
    assert _run_fresh(WRITE_LEVEL3, REPORT_UPPER_LAYERS, tmp_path) == "[]"


@pytest.mark.parametrize(
    "body",
    ["import repro.cli", "import repro.repo", "import repro.fabric.coordinator", WRITE_LEVEL3],
    ids=["cli", "warehouse", "coordinator", "level3-write"],
)
def test_a_process_that_builds_no_topology_loads_no_numeric_stack(body, tmp_path):
    assert _run_fresh(body, REPORT_NUMERIC_STACK, tmp_path) == "[]"


def test_a_simulated_experiment_loads_no_numeric_stack(tmp_path):
    # A simulated experiment draws its mesh, routes it and measures its hop
    # counts on plain dicts and ints: numpy, scipy and networkx stay unloaded.
    body = """
        import repro
        from repro.sd.processlib import build_two_party_description

        repro.run_experiment(build_two_party_description(seed=3, replications=1), "c")
    """
    assert _run_fresh(body, REPORT_NUMERIC_STACK, tmp_path) == "[]"


def test_a_statistic_loads_scipy(tmp_path):
    # The positive control: the report above sees the stack when it loads.
    body = """
        from repro.analysis.stats import mean_confidence_interval

        mean_confidence_interval([1.0, 2.0, 4.0])
    """
    loaded = _run_fresh(body, REPORT_NUMERIC_STACK, tmp_path)
    assert "'numpy'" in loaded and "'scipy'" in loaded


def _module_name(path: Path) -> str:
    """``src/repro/net/medium.py`` -> ``repro.net.medium``; a package's
    ``__init__.py`` answers to the package name."""
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(path: Path):
    """Every dotted name an import statement of *path* could bind to a
    module: ``from a import b`` yields both ``a`` and ``a.b``."""
    package = _module_name(path.parent / "__init__.py").split(".") if SRC in path.parents else []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            base = ".".join(base + ([node.module] if node.module else []))
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_every_leaf_module_is_imported_by_something_that_is_not_a_test():
    leaves = {
        _module_name(path): path
        for path in (SRC / "repro").rglob("*.py")
        if path.name not in ("__init__.py", "__main__.py")  # packages; the entry point
    }
    imported = set()
    for top in ("src", "examples", "tools", "benchmarks"):
        for path in (ROOT / top).rglob("*.py"):
            imported.update(name for name in _imports(path) if leaves.get(name, path) != path)
    assert sorted(set(leaves) - imported) == []
