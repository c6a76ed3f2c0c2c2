#!/usr/bin/env python
"""Execution census: what src/ defines that nothing runs or sets.

``tests/unit/test_surface.py`` reads names; this census watches the code
run.  It records, with the standard library alone (``sys.setprofile``,
call events only, filtered to ``src/repro/**``):

* every function and method defined at module or class level under
  ``src/repro/`` that a call entered;
* for each parameter with a default, whether a call passed a non-default
  value, and whether the immediate caller of such a call lives outside
  ``tests/``;
* every ``--flag`` of the ``repro`` CLI that a parsed namespace set to a
  non-default value.

It runs, on a scratch copy of the working tree:

* tier-1 and the legacy ``benchmarks/bench_*.py`` in one pytest session,
  with this file as a plugin (not ``benchmarks/e2e``, whose entry points
  the benchmark checks itself);
* every script in ``examples/``;
* every ``run: |`` step of ``.github/workflows/ci.yml`` (the CI smoke
  commands), one per matrix value, except the jobs in ``SKIPPED_JOBS``.

Child processes are censused too: the copy's ``src/`` gets a
``sitecustomize.py`` that loads this file into any interpreter started
with that ``src/`` on its path (``PYTHONPATH=src python -m repro ...``,
the fleet drill's workers, a test's subprocess), and each process writes
its findings to one JSON file at exit.

Three lists in ``SURFACE.json`` hold what the census finds, each entry
with the reason it stays:

* ``never_entered``: callables no call entered;
* ``keywords_only_tests_set``: defaulted parameters of entered callables
  that no caller outside ``tests/`` set to a non-default value;
* ``cli_flags_unset``: flags no parse set.

The lists may only shrink.  The census fails when a list has an entry
that ``SURFACE.json`` lacks or lists without a reason; an entry that no
longer appears is reported and may be dropped.

Usage (from the repository root; ≈ 12 min on two CPUs)::

    python tools/exec_census.py                  # run and check
    python tools/exec_census.py --save raw.json  # keep the raw findings
    python tools/exec_census.py --load raw.json  # check saved findings
    python tools/exec_census.py --update         # rewrite the three lists:
                                                 # drop what now runs, add
                                                 # new entries, reason ""
"""

import ast
import json
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENV = "REPRO_EXEC_CENSUS"
LISTS = ("never_entered", "keywords_only_tests_set", "cli_flags_unset")
# coverage: needs the coverage package.  e2e-bench-smoke: the benchmark
# checks its own entry points (benchmarks/e2e/layers.py) on every run.
# exec-census: this census.
SKIPPED_JOBS = ("coverage", "e2e-bench-smoke", "exec-census")
GENERATOR_FLAGS = 0x20 | 0x80 | 0x200  # CO_GENERATOR | CO_COROUTINE | CO_ASYNC_GENERATOR
SITECUSTOMIZE = """\
# Written by tools/exec_census.py into its scratch copy of the tree.
import importlib.util
import sys

_spec = importlib.util.spec_from_file_location("exec_census", {tool!r})
_census = importlib.util.module_from_spec(_spec)
sys.modules["exec_census"] = _census
_spec.loader.exec_module(_census)
_census.start()
"""


# ----------------------------------------------------------------------
# Recording (runs inside every censused process)
# ----------------------------------------------------------------------
class Recorder:
    """Call-event hook: what a process entered, set and parsed."""

    def __init__(self, src: str, out_dir: str) -> None:
        self.src = src + os.sep
        self.package = os.path.join(src, "repro") + os.sep
        self.tests = os.path.join(os.path.dirname(src), "tests") + os.sep
        self.out_dir = out_dir
        # id(code) -> (code, pending params or None); holding the code
        # object keeps its id from being reused.
        self._codes = {}
        self.entered = set()
        self.set_by_tests = set()
        self.set_elsewhere = set()
        self.flags = set()

    # The hook ----------------------------------------------------------
    def hook(self, frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        seen = self._codes.get(id(code))
        if seen is None:
            seen = self._codes[id(code)] = (code, self._learn(frame))
        pending = seen[1]
        if pending:
            self._check(frame, pending)

    def _learn(self, frame):
        """Note a first call of *frame*'s code; its defaulted parameters."""
        code = frame.f_code
        path = code.co_filename
        if not path.startswith(self.package) or "<" in code.co_qualname:
            return None
        qual = f"{module_name(path[len(self.src):])}:{code.co_qualname}"
        self.entered.add(qual)
        try:
            fn = _function(frame.f_globals, code)
        except Exception:  # an exception here would uninstall the hook
            fn = None
        if fn is None:
            return None
        names = code.co_varnames
        positional = names[: code.co_argcount]
        defaults = fn.__defaults__ or ()
        params = list(zip(positional[len(positional) - len(defaults) :], defaults))
        kwdefaults = fn.__kwdefaults__ or {}
        keyword_only = names[code.co_argcount : code.co_argcount + code.co_kwonlyargcount]
        params += [(name, kwdefaults[name]) for name in keyword_only if name in kwdefaults]
        if not params:
            return None
        start = None
        if code.co_flags & GENERATOR_FLAGS:
            import dis

            start = next(i.offset for i in dis.get_instructions(code) if i.opname == "RESUME")
        return [start] + [[name, default, f"{qual}({name})"] for name, default in params]

    def _check(self, frame, pending):
        """Record which defaulted parameters this call set."""
        snapshot = pending[:]  # another thread may settle it meanwhile
        if not snapshot:
            return
        start, params = snapshot[0], snapshot[1:]
        if start is not None and frame.f_lasti != start:
            return  # a generator resumed: its arguments were seen on entry
        caller = frame.f_back
        from_tests = caller is not None and caller.f_code.co_filename.startswith(self.tests)
        values = frame.f_locals
        for name, default, key in params:
            if _differs(values.get(name, default), default):
                (self.set_by_tests if from_tests else self.set_elsewhere).add(key)
        if not from_tests:
            # Settled parameters are not checked again; one slice store,
            # so a thread racing through the same code sees either list.
            left = [p for p in params if p[2] not in self.set_elsewhere]
            pending[:] = [start, *left] if left else []

    # Installation -------------------------------------------------------
    def install(self) -> None:
        """(Re-)install the hook; an exception inside it uninstalls it."""
        import threading

        sys.setprofile(self.hook)
        threading.setprofile(self.hook)

    def patch_argparse(self) -> None:
        import argparse

        original = argparse.ArgumentParser.parse_known_args
        recorder = self

        def parse_known_args(parser, args=None, namespace=None):
            parsed, rest = original(parser, args, namespace)
            if parser.prog.split()[0] == "repro":
                for action in parser._actions:
                    flag = _long_flag(action)
                    if flag is not None and _differs(
                        getattr(parsed, action.dest, action.default), action.default
                    ):
                        recorder.flags.add(f"{parser.prog} {flag}")
            return parsed, rest

        argparse.ArgumentParser.parse_known_args = parse_known_args

    def dump(self) -> None:
        sys.setprofile(None)
        fd, _ = tempfile.mkstemp(suffix=".json", dir=self.out_dir)
        with os.fdopen(fd, "w", encoding="utf-8") as out:
            json.dump(
                {
                    "entered": sorted(self.entered),
                    "set_by_tests": sorted(self.set_by_tests),
                    "set_elsewhere": sorted(self.set_elsewhere),
                    "flags": sorted(self.flags),
                },
                out,
            )


RECORDER = None


def start() -> None:
    """Census this process when the driver asked for it (``$REPRO_EXEC_CENSUS``)."""
    global RECORDER
    out_dir = os.environ.get(ENV)
    if not out_dir or RECORDER is not None:
        return
    import atexit
    import multiprocessing.util

    src = os.path.dirname(os.path.abspath(sys.modules["sitecustomize"].__file__))
    RECORDER = Recorder(src, out_dir)
    RECORDER.patch_argparse()
    RECORDER.install()
    atexit.register(RECORDER.dump)
    # A forked pool worker leaves through os._exit, past atexit; its
    # multiprocessing finalizers still run.
    multiprocessing.util.register_after_fork(RECORDER, _dump_at_worker_exit)


def _dump_at_worker_exit(recorder) -> None:
    import multiprocessing.util

    multiprocessing.util.Finalize(recorder, recorder.dump, exitpriority=100)


# pytest plugin hooks: a RecursionError raised inside the hook (a test
# that exhausts the stack does) uninstalls it, so each test phase
# re-installs it.
def pytest_runtest_setup(item):
    if RECORDER is not None:
        RECORDER.install()


pytest_runtest_call = pytest_runtest_teardown = pytest_runtest_setup


def _differs(value, default) -> bool:
    if value is default:
        return False
    try:
        return not bool(value == default)
    except Exception:  # an array compares element-wise: not the default
        return True


def _long_flag(action):
    """The first ``--`` spelling of an option the user sets, or None."""
    import argparse

    if isinstance(action, (argparse._HelpAction, argparse._VersionAction)):
        return None
    return next((s for s in action.option_strings if s.startswith("--")), None)


def _function(scope, code):
    """The function object whose code is *code*, looked up by qualname."""
    obj = None
    for part in code.co_qualname.split("."):
        obj = scope.get(part)
        if obj is None:
            return None
        scope = getattr(obj, "__dict__", {})
    todo = [obj]
    while todo:
        obj = todo.pop()
        if getattr(obj, "__code__", None) is code:
            return obj
        for attr in ("__func__", "__wrapped__", "fget", "fset", "fdel", "func"):
            inner = getattr(obj, attr, None)
            if inner is not None and len(todo) < 8:
                todo.append(inner)
    return None


def module_name(relative: str) -> str:
    """``repro/net/node.py`` -> ``repro.net.node`` (``__init__`` dropped)."""
    parts = Path(relative).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


# ----------------------------------------------------------------------
# What src/ defines
# ----------------------------------------------------------------------
def definitions(src: Path):
    """``{module:Qual.name: [defaulted parameter names]}`` for every
    function and method at module or class level under ``src/repro``."""
    found = {}

    def walk(body, module, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                names = [a.arg for a in positional[len(positional) - len(args.defaults) :]]
                names += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                params = found.setdefault(f"{module}:{prefix}{node.name}", [])
                params += [name for name in names if name not in params]
            elif isinstance(node, ast.ClassDef):
                walk(node.body, module, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.If, ast.Try, ast.With)):
                for block in ("body", "orelse", "finalbody"):
                    walk(getattr(node, block, []), module, prefix)
                for handler in getattr(node, "handlers", []):
                    walk(handler.body, module, prefix)

    for path in sorted((src / "repro").rglob("*.py")):
        module = module_name(str(path.relative_to(src)))
        walk(ast.parse(path.read_text(encoding="utf-8")).body, module, "")
    return found


def cli_flags(src: Path):
    """``{per-parser flag: shared name}`` for every ``repro`` flag.

    A flag declared once on a parent parser is one option however many
    subcommands inherit it: its shared name lists them all, and setting
    it on any of them counts.
    """
    import argparse

    sys.path.insert(0, str(src))
    from repro.cli import build_parser

    holders = {}

    def walk(parser):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in {id(p): p for p in action.choices.values()}.values():
                    walk(sub)
            elif _long_flag(action) is not None:
                holders.setdefault(id(action), (_long_flag(action), []))[1].append(parser.prog)

    walk(build_parser())
    names = {}
    for flag, progs in holders.values():
        if len(progs) == 1:
            shared = f"{progs[0]} {flag}"
        else:
            subcommands = ",".join(sorted(p.split(" ", 1)[1] for p in progs))
            shared = f"repro {{{subcommands}}} {flag}"
        names.update({f"{prog} {flag}": shared for prog in progs})
    return names


# ----------------------------------------------------------------------
# Driving the runs
# ----------------------------------------------------------------------
def ci_smoke_steps(workflow: Path):
    """``(job, script)`` for every ``run: |`` step, once per matrix value."""
    import itertools
    import re

    steps, job, matrix = [], None, {}
    lines = workflow.read_text(encoding="utf-8").splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        i += 1
        head = re.match(r"^  ([\w-]+):\s*$", line)
        if head:
            job, matrix = head.group(1), {}
            continue
        axis = re.match(r"^\s+([\w-]+): \[(.*)\]\s*$", line)
        if axis and job:
            matrix[axis.group(1)] = [v.strip().strip("'\"") for v in axis.group(2).split(",")]
            continue
        if not re.match(r"^\s+(- )?run: \|\s*$", line) or job in SKIPPED_JOBS:
            continue
        indent = len(line) - len(line.lstrip()) + (2 if line.lstrip().startswith("- ") else 0)
        block = []
        while i < len(lines) and (
            not lines[i].strip() or len(lines[i]) - len(lines[i].lstrip()) > indent
        ):
            block.append(lines[i])
            i += 1
        width = min(len(b) - len(b.lstrip()) for b in block if b.strip())
        script = "\n".join(b[width:] for b in block) + "\n"
        keys = sorted(k for k in matrix if "${{ matrix.%s }}" % k in script)
        for values in itertools.product(*(matrix[k] for k in keys)):
            text = script
            for key, value in zip(keys, values):
                text = text.replace("${{ matrix.%s }}" % key, value)
            steps.append((job + "".join(f"[{v}]" for v in values), text))
    return steps


def _tracked_files():
    import subprocess

    out = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT,
        check=True,
        capture_output=True,
    ).stdout.decode()
    return [name for name in out.split("\0") if name and (ROOT / name).is_file()]


def run_census(work: Path) -> dict:
    """Run everything on a copy of the tree under *work*; merged findings."""
    import shutil
    import subprocess

    tree, out = work / "tree", work / "out"
    out.mkdir(parents=True)
    for name in _tracked_files():
        (tree / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(ROOT / name, tree / name)
    tool = str(tree / "tools" / "exec_census.py")
    (tree / "src" / "sitecustomize.py").write_text(SITECUSTOMIZE.format(tool=tool))
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **{ENV: str(out)})

    failures = []

    def run(label, command, cwd=tree):
        began = time.monotonic()
        log = work / "log.txt"
        with open(log, "w", encoding="utf-8") as sink:
            code = subprocess.run(command, cwd=cwd, env=env, stdout=sink, stderr=sink).returncode
        print(f"  {label}: exit {code}, {time.monotonic() - began:.0f} s", flush=True)
        if code != 0:
            failures.append(label)
            print("".join(log.read_text(encoding="utf-8").splitlines(True)[-20:]), flush=True)

    print("exec census:", flush=True)
    run(
        "pytest tests benchmarks",
        [sys.executable, "-m", "pytest", "-q", "-p", "exec_census", "-p", "no:cacheprovider",
         "-W", "ignore::pytest.PytestAssertRewriteWarning", "--benchmark-disable",
         "--ignore=benchmarks/e2e", "tests", "benchmarks"],
    )
    for script in sorted((tree / "examples").glob("*.py")):
        scratch = work / "examples" / script.stem
        scratch.mkdir(parents=True)
        run(f"examples/{script.name}", [sys.executable, str(script)], cwd=scratch)
    for label, script in ci_smoke_steps(tree / ".github" / "workflows" / "ci.yml"):
        run(f"ci {label}", ["bash", "-e", "-c", script])

    merged = {key: set() for key in ("entered", "set_by_tests", "set_elsewhere", "flags")}
    for path in out.glob("*.json"):
        for key, values in json.loads(path.read_text(encoding="utf-8")).items():
            merged[key].update(values)
    merged = {key: sorted(values) for key, values in merged.items()}
    merged["failed"] = failures
    return merged


# ----------------------------------------------------------------------
# The three lists and the ratchet
# ----------------------------------------------------------------------
def census_lists(raw: dict) -> dict:
    defined = definitions(ROOT / "src")
    entered = set(raw["entered"])
    elsewhere = set(raw["set_elsewhere"])
    names = cli_flags(ROOT / "src")
    set_flags = {names[flag] for flag in raw["flags"] if flag in names}
    return {
        "never_entered": sorted(q for q in defined if q not in entered),
        "keywords_only_tests_set": sorted(
            f"{q}({p})"
            for q, params in defined.items()
            if q in entered
            for p in params
            if f"{q}({p})" not in elsewhere
        ),
        "cli_flags_unset": sorted(set(names.values()) - set_flags),
        "_totals": {
            "callables": len(defined),
            "defaulted params": sum(len(p) for q, p in defined.items()),
            "defaulted params of entered callables": sum(
                len(p) for q, p in defined.items() if q in entered
            ),
            "cli flags": len(set(names.values())),
        },
    }


def check(found: dict, surface: dict) -> list:
    problems = []
    for key in LISTS:
        committed = surface.get(key, {})
        for name in found[key]:
            if name not in committed:
                problems.append(f"{key}: {name} is new — test it, delete it, or give a reason")
            elif not committed[name].strip():
                problems.append(f"{key}: {name} has no reason")
        stale = sorted(set(committed) - set(found[key]))
        for name in stale:
            print(f"note: {key}: {name} now runs or is gone; drop it from SURFACE.json")
    return problems


def update(found: dict, surface: dict) -> dict:
    for key in LISTS:
        committed = surface.get(key, {})
        surface[key] = {name: committed.get(name, "") for name in found[key]}
    return surface


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--save", type=Path, help="write the raw findings to this file")
    parser.add_argument("--load", type=Path, help="check saved raw findings; run nothing")
    parser.add_argument("--update", action="store_true", help="rewrite the lists in SURFACE.json")
    args = parser.parse_args(argv)

    began = time.monotonic()
    if args.load:
        raw = json.loads(args.load.read_text(encoding="utf-8"))
    else:
        with tempfile.TemporaryDirectory(prefix="exec-census-") as work:
            raw = run_census(Path(work))
    if args.save:
        args.save.write_text(json.dumps(raw, indent=1) + "\n", encoding="utf-8")
    found = census_lists(raw)
    for key, value in found.pop("_totals").items():
        print(f"{key}: {value}")
    for key in LISTS:
        print(f"{key}: {len(found[key])}")
    print(f"wall time: {time.monotonic() - began:.0f} s")

    surface_path = ROOT / "SURFACE.json"
    surface = json.loads(surface_path.read_text(encoding="utf-8"))
    if args.update:
        surface = update(found, surface)
        surface_path.write_text(json.dumps(surface, indent=2) + "\n", encoding="utf-8")
    problems = [f"{label} failed" for label in raw.get("failed", [])]
    problems += check(found, surface)
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
