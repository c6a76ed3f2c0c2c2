"""CI's workflow runs commands; the checks it makes live in tests.

A shell assertion inside a ``run:`` step of ``.github/workflows/ci.yml``
is a check that no local command runs.  Write it as a ``ci``-marked test
under ``tests/cli/`` (``pytest -m ci``), and let the step run that.
"""

import re
from pathlib import Path

WORKFLOW = Path(__file__).resolve().parents[2] / ".github" / "workflows" / "ci.yml"
#: grep, test, [ ... ], [[ ... ]] and if: what a shell script asserts with.
ASSERTION = re.compile(r"\bgrep\b|\btest\s|(^|\s)\[\[?\s|\bif\s")


def run_steps(text):
    """The script of every ``run:`` step, inline or a block scalar, without
    its comment lines."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        match = re.match(r"^(\s*)(?:- )?run:\s*(.*)$", line)
        if match is None:
            continue
        indent, value = len(match.group(1)), match.group(2)
        script = [value]
        if value[:1] in "|>":
            script = []
            for line in lines[i + 1 :]:
                if line.strip() and len(line) - len(line.lstrip()) <= indent:
                    break
                script.append(line)
        yield "\n".join(s for s in script if not s.strip().startswith("#"))


def test_every_run_step_is_read():
    scripts = list(run_steps(WORKFLOW.read_text(encoding="utf-8")))
    assert len(scripts) == WORKFLOW.read_text(encoding="utf-8").count("run:")
    assert "PYTHONPATH=src python -m pytest -m ci -q" in scripts


def test_no_run_step_holds_a_shell_assertion():
    scripts = run_steps(WORKFLOW.read_text(encoding="utf-8"))
    assert [script for script in scripts if ASSERTION.search(script)] == []
