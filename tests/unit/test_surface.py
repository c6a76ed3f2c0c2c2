"""Surface census: what ``src/`` lets a user set, and what nothing uses.

Like ``test_layering.py`` it reads the code with :mod:`ast` and imports
nothing from ``repro``.  ``SURFACE.json`` at the repository root holds
the census:

* ``counts`` of settable options: keyword defaults on public callables,
  special parameters, ``PlatformConfig`` fields, CLI ``--flags`` and
  environment reads;
* ``unreferenced``: every function, method and class under ``src/`` whose
  name nothing outside ``tests/`` uses — ``src/`` itself (the definition
  aside), ``tools/``, ``examples/``, ``benchmarks/`` and ``.github/`` —
  each with the reason it stays.  A use is an identifier, an attribute,
  an import or a word of a string literal; docstrings and comments are
  not uses.

The test fails whenever the census and the file disagree, so the surface
shrinks unless ``SURFACE.json`` grows with it in the same change.

Three more keys belong to the execution census (``tools/exec_census.py``,
run by the ``exec-census`` CI job, not by this test), each entry with the
reason it stays:

* ``never_entered``: callables no call entered while tier-1, the ``ci``
  tests, the legacy benchmarks, the examples and the fleet drills ran;
* ``keywords_only_tests_set``: ``module:Qual.name(param)`` for each
  defaulted parameter no caller outside ``tests/`` set;
* ``cli_flags_unset``: ``repro`` flags no parse set.
"""

import ast
import json
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
SURFACE = ROOT / "SURFACE.json"
REFERENCE_TREES = ("src", "tools", "examples", "benchmarks", ".github")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _files(top: str):
    """Python and workflow files under *top*, skipping caches and scratch."""
    for path in sorted((ROOT / top).rglob("*")):
        inner = path.relative_to(ROOT).parts[1:]
        if path.suffix in (".py", ".yml", ".yaml") and not any(
            part.startswith(".") or part == "__pycache__" for part in inner
        ):
            yield path


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _definitions(tree: ast.Module, module: str):
    """``(module:Qual.name, name)`` of every non-dunder def and class."""

    def walk(body, prefix):
        for node in body:
            if isinstance(node, FUNCS + (ast.ClassDef,)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield f"{module}:{prefix}{node.name}", node.name
                if isinstance(node, ast.ClassDef):
                    yield from walk(node.body, f"{prefix}{node.name}.")

    return walk(tree.body, "")


def _uses(tree: ast.Module):
    docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docstrings:
                yield from WORD.findall(node.value)


def _keyword_defaults(tree: ast.Module) -> int:
    """Defaulted parameters of public functions, and of the public methods
    (``__init__`` included) of public classes."""
    callables = [n for n in tree.body if isinstance(n, FUNCS) and not n.name.startswith("_")]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
            callables += [
                n
                for n in cls.body
                if isinstance(n, FUNCS) and (n.name == "__init__" or not n.name.startswith("_"))
            ]
    return sum(
        len(f.args.defaults) + sum(d is not None for d in f.args.kw_defaults) for f in callables
    )


def _counts(trees) -> dict:
    counts = Counter(
        cli_flags=0,
        environ_reads=0,
        keyword_defaults=0,
        platform_config_fields=0,
        special_params=0,
    )
    for tree in trees:
        counts["keyword_defaults"] += _keyword_defaults(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                first = node.args[0] if node.args else None
                if (
                    name == "add_argument"
                    and isinstance(first, ast.Constant)
                    and str(first.value).startswith("--")
                ):
                    counts["cli_flags"] += 1
                elif name == "ParamDef":
                    counts["special_params"] += 1
            elif isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                counts["environ_reads"] += 1
            elif isinstance(node, ast.ClassDef) and node.name == "PlatformConfig":
                counts["platform_config_fields"] += sum(
                    isinstance(n, ast.AnnAssign) for n in node.body
                )
    return dict(counts)


def census() -> dict:
    src_trees = []
    definitions = []
    used = Counter()
    for top in REFERENCE_TREES:
        for path in _files(top):
            text = path.read_text(encoding="utf-8")
            if path.suffix != ".py":
                used.update(WORD.findall(text))
                continue
            tree = ast.parse(text)
            if top == "src":
                src_trees.append(tree)
                definitions += _definitions(tree, _module_name(path))
            used.update(_uses(tree))
    return {
        "counts": _counts(src_trees),
        "unreferenced": sorted(qual for qual, name in definitions if not used[name]),
    }


def test_surface_matches_the_committed_census():
    committed = json.loads(SURFACE.read_text(encoding="utf-8"))
    found = census()
    problems = [
        f"{key}: {committed['counts'].get(key)} in SURFACE.json, {value} in src/"
        for key, value in sorted(found["counts"].items())
        if committed["counts"].get(key) != value
    ]
    listed = set(committed["unreferenced"])
    problems += [
        f"nothing outside tests/ uses {name}"
        for name in found["unreferenced"]
        if name not in listed
    ]
    problems += [
        f"SURFACE.json lists {name}, which is now used or gone"
        for name in sorted(listed - set(found["unreferenced"]))
    ]
    assert not problems, (
        "the surface census moved: delete what nothing uses, or change "
        "SURFACE.json with the code\n  " + "\n  ".join(problems)
    )
