#!/usr/bin/env python3
"""End-to-end benchmark: XML → fleet → L3 → warehouse query, with a per-layer
breakdown that sums to the wall time.

    PYTHONPATH=src python benchmarks/e2e/run.py [--seed N] [--workload NAME]
        [--seconds S] [--trace 0|1] [--scale full|smoke] [--json OUT]
        [--check-repeat] [--profile LAYER]

Without ``--workload`` every workload runs in its own fresh subprocess.  A
workload process sets up, runs one untimed warm-up, then timed repetitions
(closed loop: the next starts when the previous finished), then — unless
``--trace 0`` — one more repetition with the entry-point table of
``layers.py`` wrapped by ``tracer.py``.  End-to-end numbers always come from
the untraced repetitions.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time counts from here, imports included

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
WORK = HERE / ".work"
DEFAULT_SEED = 2014
DEFAULT_SECONDS = 30
MIN_REPS = 3
WORKLOAD_NAMES = ("sd_campaign", "mesh_storm", "measurement_store", "fleet_registry")


def _import_program() -> None:
    """Make ``repro`` and this directory importable; refuse to run when the
    program's source is not in the checkout."""
    if not (REPO / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: the program's source is not under {REPO / 'src'}")
    for path in (str(HERE), str(REPO / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace, scale: str,
                 spans_out=None) -> dict:
    """Set up, warm up, time, optionally trace; returns the result record.

    *trace* is ``0`` (timed reps only), ``1`` (a few untraced reps for the
    overhead baseline, then the traced rep) or ``None`` (both in full).
    """
    _import_program()
    import layers
    from common import Samples, peak_rss_mib, safe_div
    from metrics import BY_NAME, LAYER, UNIFORM, USER
    from tracer import ROOT, Tracer
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _T0
    workdir = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "tmp").mkdir(parents=True)
    # Temporary files (Python's and SQLite's) stay inside the checkout.
    os.environ["TMPDIR"] = os.environ["SQLITE_TMPDIR"] = str(workdir / "tmp")
    try:
        workload = WORKLOADS[name](seed, scale, workdir)
        workload.setup()
        generate_s = time.perf_counter() - _T0 - import_s
        workload.warmup()
        setup_s = time.perf_counter() - _T0

        # --trace 1 needs untraced reps only as the tracing-overhead baseline.
        target_reps = workload.reps if trace != 1 else max(1, workload.reps // 2)
        samples = Samples()
        measuring = time.perf_counter()
        done = 0
        while done < target_reps:
            if done >= MIN_REPS and time.perf_counter() - measuring >= seconds:
                break
            rep = workload.rep()
            done += 1
            samples.add("wall", rep["wall"])
            samples.add("work_per_s", safe_div(rep["work"], rep["work_s"]))
            for stage, value in rep["stages"].items():
                samples.add(stage, value)
            for pooled, values in rep["pooled"].items():
                samples.extend(pooled, values)

        values = {
            "setup_s": setup_s,
            "pipeline_s": samples.median("wall"),
            "work_per_s": samples.median("work_per_s"),
        }
        values.update(workload.metrics(samples))

        breakdown = None
        if trace != 0:
            # The traced repetition whose wall is the median one speaks for
            # the rest: one sample would put this box's noise into the
            # tracing-overhead figure.
            table = layers.targets()
            traced_reps = []
            for _ in range(workload.traced_reps):
                workload.tracer = Tracer()
                with workload.tracer.installed(table):
                    traced_reps.append((workload.rep(), workload.tracer))
                counts = layers.traced_metrics(
                    workload.tracer, traced_reps[-1][0]["info"].get("runs", 1))
                workload.exact.observe_all({
                    f"traced {m.name}": counts[m.name]
                    for m in LAYER if m.exact and m.name in counts
                })
            traced_reps.sort(key=lambda pair: pair[0]["wall"])
            traced, tracer = traced_reps[len(traced_reps) // 2]
            workload.tracer = tracer
            breakdown = layers.breakdown(tracer)
            runs = traced["info"].get("runs", 1)
            for key, value in layers.traced_metrics(tracer, runs).items():
                # Stage timings from untraced reps win over traced ones.
                values.setdefault(key, value)
            values.update(workload.traced_metrics())
            values["sim.callbacks_per_busy_s"] = safe_div(
                values["sim.callbacks"], values["sim.busy_s"])
            values["bench.traced_wall_s"] = traced["wall"]
            values["bench.rows_sum_s"] = sum(breakdown.values())
            values["bench.unattributed_s"] = breakdown.get(ROOT, 0.0)
            values["bench.trace_overhead_pct"] = 100.0 * (
                safe_div(traced["wall"], samples.median("wall")) - 1.0)
            if spans_out:
                tracer.dump(spans_out, {"workload": name, "seed": seed,
                                        "breakdown_s": breakdown})
        values["peak_rss_mb"] = peak_rss_mib()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = [m for m in USER if name in m.workloads]
    if trace != 0:
        wanted = wanted + LAYER
    if trace == 0:
        contract = UNIFORM
    elif trace == 1:
        contract = [m for m in USER + LAYER if m not in UNIFORM]
    else:
        contract = USER + LAYER
    return {
        "workload": name, "seed": seed, "scale": scale, "trace": trace,
        "reps": done, "work_unit": workload.work_unit,
        "samples": {k: samples.n(k) for k in ("wall", "run_wall_s") if samples.n(k)},
        "rep_walls_s": samples.values.get("wall", []),
        "import_s": import_s, "generate_s": generate_s,
        "attempted": workload.ops.attempted, "failed": workload.ops.failed,
        "failures": workload.ops.failures,
        "exact": dict(workload.exact.first),
        "breakdown_s": breakdown,
        "values": {m.name: values.get(m.name) or 0 for m in wanted},
        "contract": {
            m.name: {"value": values.get(m.name) or 0, "unit": BY_NAME[m.name].unit}
            for m in contract
        },
    }


def print_result(result: dict) -> None:
    from metrics import BY_NAME

    name = result["workload"]
    print(f"\n=== {name}  seed={result['seed']} scale={result['scale']} "
          f"reps={result['reps']} samples={result['samples']} "
          f"work unit={result['work_unit']} ===")
    print("rep walls (s):", " ".join(f"{w:.4f}" for w in result["rep_walls_s"]))
    print(f"ops_attempted={result['attempted']} ops_failed={result['failed']}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    for metric, value in result["values"].items():
        m = BY_NAME[metric]
        bound = f"  [bound {m.bound:.2f}]" if m.bound is not None else ""
        exact = "  (exact)" if m.exact else ""
        print(f"  {metric:<40} {value!r:>24} {m.unit}{bound}{exact}")
    breakdown = result["breakdown_s"]
    if breakdown:
        wall = result["values"]["bench.traced_wall_s"]
        print(f"\n  {name}: traced wall {wall:.4f} s by layer (self time)")
        for layer, secs in sorted(breakdown.items(), key=lambda kv: -kv[1]):
            label = "bench.unattributed" if layer == "bench" else layer
            print(f"    {label:<24} {secs:>10.4f} s {100 * secs / wall:>6.1f} %")
        print(f"    {'sum of rows':<24} {sum(breakdown.values()):>10.4f} s")


# ----------------------------------------------------------------------
# The suite: one fresh subprocess per workload
# ----------------------------------------------------------------------
def run_suite(args, names, quiet: bool = False) -> list:
    WORK.mkdir(parents=True, exist_ok=True)
    results = []
    for name in names:
        out = WORK / f"result-{name}-{os.getpid()}.json"
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--scale", args.scale, "--json", str(out)]
        if args.trace is not None:
            cmd += ["--trace", str(args.trace)]
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE if quiet else None, text=True)
        if proc.returncode != 0 or not out.exists():
            sys.exit(f"run.py: workload {name} exited with {proc.returncode}")
        results.append(json.loads(out.read_text()))
        out.unlink()
    return results


def check_repeat(args, names) -> int:
    """Run the suite twice on the same code; hold every user metric to its
    bound and every exact count to equality."""
    from common import pct_gap
    from metrics import BY_NAME, USER

    first = run_suite(args, names, quiet=True)
    second = run_suite(args, names, quiet=True)
    bad = 0
    print(f"{'workload':<18} {'metric':<22} {'first':>14} {'second':>14} "
          f"{'gap':>8} {'bound':>6}")
    for a, b in zip(first, second):
        for metric in (m for m in USER if a["workload"] in m.workloads):
            va, vb = a["values"][metric.name], b["values"][metric.name]
            gap = max(pct_gap(va, vb, metric.better), pct_gap(vb, va, metric.better))
            verdict = "" if gap <= metric.bound else "  EXCEEDS"
            bad += bool(verdict)
            print(f"{a['workload']:<18} {metric.name:<22} {va:>14.6g} {vb:>14.6g} "
                  f"{100 * gap:>7.2f}% {100 * metric.bound:>5.0f}%{verdict}")
        exact_a = dict(a["exact"], **{k: v for k, v in a["values"].items()
                                      if BY_NAME[k].exact})
        exact_b = dict(b["exact"], **{k: v for k, v in b["values"].items()
                                      if BY_NAME[k].exact})
        for key in sorted(set(exact_a) | set(exact_b)):
            if exact_a.get(key) != exact_b.get(key):
                bad += 1
                print(f"{a['workload']:<18} exact {key}: "
                      f"{exact_a.get(key)!r} != {exact_b.get(key)!r}")
        for result in (a, b):
            if result["failed"]:
                bad += 1
                print(f"{result['workload']:<18} ops_failed={result['failed']}: "
                      f"{result['failures']}")
    print("check-repeat:", "FAILED" if bad else "ok",
          f"({len(first)} workloads, two sets)")
    return 1 if bad else 0


def profile(args) -> int:
    """Re-run one workload's repetition under cProfile, filtered to the
    files of one layer (``core.rpc`` → ``repro/core/rpc``)."""
    import cProfile
    import pstats
    import threading

    _import_program()
    from workloads import WORKLOADS

    workdir = WORK / f"profile-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.scale, workdir)
        workload.setup()
        workload.warmup()
        # Campaign runs execute in pool and worker threads: give every new
        # thread its own profiler and add them all up.
        profilers = [cProfile.Profile()]

        def profile_thread(*_event) -> None:
            profilers.append(cProfile.Profile())
            profilers[-1].enable()

        threading.setprofile(profile_thread)
        profilers[0].enable()
        try:
            workload.rep()
        finally:
            profilers[0].disable()
            threading.setprofile(None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    pattern = "repro/" + args.profile.replace(".", "/")
    stats = pstats.Stats(*profilers)
    print(f"=== {args.workload}: top 30 by internal time in {pattern}* ===")
    stats.sort_stats("tottime").print_stats(pattern, 30)
    print(f"=== {args.workload}: top 30 by cumulative time in {pattern}* ===")
    stats.sort_stats("cumulative").print_stats(pattern, 30)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seeds every generated input (default 2014)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="stop timing after this long (never below 3 reps)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1,
                        help="0: end-to-end only; 1: per-layer; absent: both")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--json", metavar="OUT", help="also write results here")
    parser.add_argument("--spans", metavar="OUT",
                        help="where the traced run writes spans.json")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run the suite twice and compare")
    parser.add_argument("--profile", metavar="LAYER",
                        help="cProfile one rep of --workload, filtered to a layer")
    args = parser.parse_args(argv)

    if args.profile:
        if not args.workload:
            parser.error("--profile needs --workload")
        return profile(args)
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    if args.check_repeat:
        _import_program()
        return check_repeat(args, names)

    if args.workload:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                              args.scale, spans_out=args.spans)
        results = [result]
    else:
        _import_program()
        results = run_suite(args, names)
    print(f"\nseed {args.seed}")
    if args.workload:
        print_result(results[0])
    if args.json:
        Path(args.json).write_text(json.dumps(results if not args.workload else results[0],
                                              indent=1, sort_keys=True) + "\n")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = {}
    for r in results:
        prefix = "" if args.workload else r["workload"] + "."
        metrics.update({prefix + k: v for k, v in r["contract"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
