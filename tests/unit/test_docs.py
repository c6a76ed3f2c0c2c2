"""Doc truth: what the prose names in backticks exists.

Every backticked repository path, ``bench_*.py`` / ``test_*.py`` file
name and ``repro <subcommand>`` in the top-level documents must resolve
at this commit, so deleting or renaming a file fails here until the prose
follows.  ``benchmarks/e2e/README.md`` is frozen with the benchmark and
not scanned.
"""

import re
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[2]
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "examples/README.md")
TREES = ("src/", "tests/", "benchmarks/", "tools/", "examples/")

#: Named on purpose as things that no longer exist (DESIGN.md §13).
HISTORICAL = {"storage/level4.py", "repro import"}


def _subcommands(parser=None, prefix=()):
    """Every command path the CLI accepts: ``("run",)``, ``("fabric", "serve")``..."""
    parser = parser or build_parser()
    for action in parser._actions:
        for name, sub in (action.choices if isinstance(action.choices, dict) else {}).items():
            yield prefix + (name,)
            yield from _subcommands(sub, prefix + (name,))


def _resolves(token, commands, file_names):
    if token.startswith(TREES):
        path = re.split(r"::|:\d|\s", token)[0]
        return bool(re.search(r"[*<…]", path)) or (ROOT / path).exists()
    if re.fullmatch(r"(bench|test)_\w+\.py", token):
        return token in file_names
    if re.fullmatch(r"[\w/]+/\w+\.py", token):  # package-relative: `net/topology.py`
        return any((base / token).exists() for base in (ROOT / "src/repro", ROOT / "src", ROOT))
    words = token.split()
    if words[0] == "repro" and len(words) > 1 and re.fullmatch(r"[a-z][\w-]*", words[1]):
        if (words[1],) not in commands:
            return False
        if any(len(path) > 1 and path[0] == words[1] for path in commands):  # a command group
            named = len(words) > 2 and re.fullmatch(r"[a-z][\w|-]*", words[2])
            subs = words[2].split("|") if named else ()
            return all((words[1], sub) in commands for sub in subs)
    return True


@pytest.mark.parametrize("doc", DOCS)
def test_backticked_paths_and_subcommands_exist(doc):
    commands = set(_subcommands())
    file_names = {
        path.name for tree in ("tests", "benchmarks") for path in (ROOT / tree).rglob("*.py")
    }
    tokens = set(re.findall(r"`([^`\n]+)`", (ROOT / doc).read_text(encoding="utf-8")))
    missing = sorted(
        token for token in tokens - HISTORICAL if not _resolves(token, commands, file_names)
    )
    assert missing == []
