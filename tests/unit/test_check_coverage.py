"""The coverage gate's tree fold (``tools/check_coverage.py``), on a fake
coverage.py JSON report; nothing measures coverage here."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "check_coverage.py"
spec = importlib.util.spec_from_file_location("check_coverage", TOOL)
check_coverage = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_coverage)


def _file(covered, statements):
    return {"summary": {"covered_lines": covered, "num_statements": statements}}


REPORT = {
    "files": {
        "src/repro/sd/registry.py": _file(90, 100),
        "src/repro/sd/broker.py": _file(45, 50),
        "src/repro/sd/gossip.py": _file(40, 50),
        "src\\repro\\sd\\agent.py": _file(125, 200),
        "src/repro/sd/mdns.py": _file(0, 100),
        "src/repro/fabric/worker.py": _file(30, 40),
        "src/repro/fabric/coordinator.py": _file(50, 60),
    }
}


def test_the_registry_floor_covers_the_shared_agent_in_either_path_form():
    # registry + broker + gossip + agent: (90+45+40+125) / (100+50+50+200)
    assert check_coverage.tree_percent(REPORT, check_coverage.REGISTRY_PREFIX) == 75.0


def test_the_registry_floor_ignores_the_other_families():
    without_agent = {"files": {k: v for k, v in REPORT["files"].items() if "agent" not in k}}
    # 175 / 200: mdns.py's zero does not count against the family.
    assert check_coverage.tree_percent(without_agent, check_coverage.REGISTRY_PREFIX) == 87.5


def test_a_tree_absent_from_the_report_has_no_percentage():
    assert check_coverage.tree_percent({"files": {}}, check_coverage.REGISTRY_PREFIX) is None
    assert check_coverage.tree_percent(REPORT, check_coverage.FABRIC_PREFIX) == 80.0
