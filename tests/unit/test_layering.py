"""Layering: storage and the L4 warehouse sit below campaign and fabric.

Level 3 owns the Table-I format — schema, reader, per-run copy, digest —
so neither writing a package nor opening the warehouse may load the
layers that merely *use* it.  Checked in a fresh interpreter:
``sys.modules`` of the test process is already full.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

REPORT_UPPER_LAYERS = """
import sys
print(sorted(m for m in sys.modules if m.startswith(("repro.campaign", "repro.fabric"))))
"""


def _loaded_upper_layers(body: str, cwd) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(body) + REPORT_UPPER_LAYERS],
        env={"PYTHONPATH": str(SRC), "PATH": ""},
        cwd=str(cwd),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_importing_the_warehouse_loads_no_campaign_or_fabric_module(tmp_path):
    assert _loaded_upper_layers("import repro.repo", tmp_path) == "[]"


def test_writing_a_level3_package_loads_no_campaign_or_fabric_module(tmp_path):
    body = """
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
    assert _loaded_upper_layers(body, tmp_path) == "[]"
