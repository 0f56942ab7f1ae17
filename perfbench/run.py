"""Benchmark of the `magnitude` CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload engine-validate --seed 1 --seconds 45 --trace 0

Run from a checkout of the repository; the package is imported from its
src/ directory, so nothing needs installing. One run:

1. Set-up, repeated SETUP_REPEATS times: a fresh interpreter imports
   magnitude.cli and builds the workload's seeded inputs (workloads.py).
   setup_s is the median wall time of those processes.
2. Timed phase: the workload's calls run one after another, each as its
   own `python -m magnitude` process, in PASSES whole passes over the
   list. The pass count is fixed, so every run makes the same calls and
   call_tail_s always takes the same rank; on a 2-core x86 machine with
   OpenBLAS two passes took 38-52 s, which BENCHMARK.json's
   run_seconds states. --seconds is accepted and does not change the run.
3. Every output is checked against an independent reference (checks.py);
   a mismatch counts as a failed call, it does not stop the run.

Metric names and units are those of BENCHMARK.json at the checkout root.
With --trace 0 the last line of stdout is the end-to-end result:
setup_s, wall_s (median pass), call_p50_s over `attempted` calls,
call_tail_s (the highest percentile with at least ten calls beyond it;
the line before the result names it) and peak_rss_mb (largest peak RSS
of any CLI process). With --trace 1 one CLI pass is followed by
in-process replays of every call, alternately without and with spans
(layers.py); the last line then holds the per-layer metrics, and the spans
are written to perfbench/out/spans-<workload>-<seed>.json.

With --wrong-reference every output is checked once per reference
comparison its check makes, with just that reference corrupted
(checks.References); `attempted` counts those checks and `failed` the
ones that caught the corruption, so a sound benchmark has them equal.

The driver keeps numpy out of its own process until the timed phase is
over: a child's peak RSS includes the parent's at the moment it starts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("engine-validate", "diversity-pixel")
# every workload has 22 calls, so a run times 44 and the tail is p77.3
PASSES = 2
SETUP_REPEATS = 3
# one replay round keeps a traced run about as long as an untraced one
REPLAY_ROUNDS = 1
CALL_LIMIT_S = 60.0
TAIL_BEYOND = 10

LIMITS = [
    "numba is not installed: only the numpy kernels run",
    "no system-wide tracing and no page-cache dropping; spans come from "
    "wrappers around the package's public functions",
    "the machine is shared, so timings carry load from other tenants",
]


class SetupError(RuntimeError):
    pass


def _env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def setup(args, env, work):
    """One set-up: fresh interpreter, import magnitude.cli, build inputs."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--out", str(work)]
    if args.tiny:
        cmd.append("--tiny")
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SetupError(proc.stderr.strip()[-500:])
    info = json.loads(proc.stdout)
    if not Path(info["module"]).is_relative_to(ROOT / "src"):
        raise SetupError(f"magnitude imported from {info['module']}, "
                         f"not from {ROOT / 'src'}")
    return elapsed, info


def run_call(call, env, work):
    """Run one CLI call as a process: (seconds, exit code, stdout, stderr,
    peak RSS in MB). Output goes to files so no pipe can stall the child."""
    with open(work / "stdout", "w+", encoding="utf-8") as out, \
            open(work / "stderr", "w+", encoding="utf-8") as err, \
            open(call["stdin"] or os.devnull, encoding="utf-8") as inp:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "magnitude", *call["argv"]],
                                stdin=inp, stdout=out, stderr=err, env=env)
        killer = threading.Timer(CALL_LIMIT_S, proc.kill)
        killer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
        killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return elapsed, proc.returncode, out.read(), err.read(), usage.ru_maxrss / 1024


def cli_passes(calls, passes, env, work):
    runs, pass_s = [], []
    for _ in range(passes):
        t0 = time.perf_counter()
        for i, call in enumerate(calls):
            runs.append((i, *run_call(call, env, work)))
        pass_s.append(time.perf_counter() - t0)
    return runs, pass_s


def tail(times):
    """Value at the highest percentile with TAIL_BEYOND calls above it.

    Below 2 * TAIL_BEYOND calls that value would sit under the median, so
    it is refused."""
    s = sorted(times)
    if len(s) < 2 * TAIL_BEYOND:
        raise ValueError(f"{len(s)} calls are too few for a tail with "
                         f"{TAIL_BEYOND} calls beyond it")
    idx = len(s) - TAIL_BEYOND - 1
    return s[idx], 100.0 * (idx + 1) / len(s)


def check_runs(calls, runs):
    from checks import check
    failed = []
    for i, _, rc, out, err, _ in runs:
        probs = check(calls[i], rc, out, err)
        if probs:
            failed.append((i, probs))
    return failed


def corrupt_runs(calls, runs):
    """Check every run once per reference comparison it makes, with only
    that reference corrupted: a list of (call index, label, caught)."""
    from checks import References, check
    out = []
    for i, _, rc, stdout, stderr, _ in runs:
        refs = References()
        check(calls[i], rc, stdout, stderr, refs)
        if not refs.seen - {"exit_code"}:
            out.append((i, "no reference consulted", False))
        for label in sorted(refs.seen):
            caught = bool(check(calls[i], rc, stdout, stderr, References(label)))
            out.append((i, label, caught))
    return out


def machine_facts():
    import ctypes
    import glob
    import platform

    import numpy
    import scipy

    import magnitude
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "backend": magnitude.backend_name(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cannot_measure": LIMITS,
    }


def traced(args, calls, runs, import_s):
    """Per-layer metrics: replay every call without spans, then with, in
    REPLAY_ROUNDS alternating rounds; the spans are those of the last.
    Also returns the calls whose replay exited unlike their CLI process."""
    import layers
    off, on = [], []
    exit_codes = {i: rc for i, _, rc, *_ in runs}
    mismatched = {}
    for _ in range(REPLAY_ROUNDS):
        times = []
        for i, call in enumerate(calls):
            t0 = time.perf_counter()
            rc = layers.replay(call)
            times.append(time.perf_counter() - t0)
            if rc != exit_codes[i]:
                mismatched[i] = [f"in-process replay exit code {rc}, "
                                 f"CLI process {exit_codes[i]}"]
        off.append(times)
        tracer = layers.Tracer()
        t0 = time.perf_counter()
        with layers.instrumented(tracer):
            for i, call in enumerate(calls):
                layers.replay(call, tracer, i)
        on.append(time.perf_counter() - t0)
    off_s = [statistics.median(r[i] for r in off) for i in range(len(calls))]
    off_total = statistics.median(sum(r) for r in off)
    metrics = layers.layer_metrics(tracer)
    cli_s = {}
    for i, elapsed, *_ in runs:
        cli_s.setdefault(i, elapsed)
    metrics["cli.import_s"] = import_s
    metrics["cli.overhead_s"] = statistics.median(cli_s[i] - off_s[i] for i in cli_s)
    metrics["cli.stderr_warnings"] = sum(err.count("RuntimeWarning") for *_, err, _ in runs)
    metrics["bench.trace_overhead_frac"] = (statistics.median(on) - off_total) / off_total
    out = HERE / "out" / f"spans-{args.workload}-{args.seed}.json"
    out.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "machine": machine_facts(),
        "calls": [c["argv"] for c in calls],
        "families": [c["family"] for c in calls],
        "span_fields": ["id", "parent", "call", "name", "start", "end"],
        "spans": tracer.spans}))
    return metrics, mismatched


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the self-test")
    ap.add_argument("--wrong-reference", action="store_true",
                    help="check each output once per reference, with that "
                         "reference deliberately wrong")
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    if not (ROOT / "src" / "magnitude" / "cli.py").is_file():
        print(f"no magnitude sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    env = _env()
    work = HERE / "out" / f"{args.workload}-{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setups = [setup(args, env, work.relative_to(ROOT))
                  for _ in range(SETUP_REPEATS)]
        calls = setups[-1][1]["calls"]
        import_s = statistics.median(info["import_s"] for _, info in setups)
        passes = 1 if args.trace else PASSES
        runs, pass_s = cli_passes(calls, passes, env, work)
        sys.path.insert(0, str(ROOT / "src"))
        failed = check_runs(calls, runs)
        times = [r[1] for r in runs]
        if args.trace:
            metrics, mismatched = traced(args, calls, runs, import_s)
            # one pass, so one entry per call
            by_call = dict(failed)
            for i, probs in mismatched.items():
                by_call.setdefault(i, []).extend(probs)
            failed = list(by_call.items())
            metrics["failed_frac"] = len(failed) / len(runs)
        else:
            tail_s, tail_pct = tail(times)
            metrics = {
                "setup_s": statistics.median(s for s, _ in setups),
                "wall_s": statistics.median(pass_s),
                "call_p50_s": statistics.median(times),
                "call_tail_s": tail_s,
                "peak_rss_mb": max(r[5] for r in runs),
            }
        if args.wrong_reference:
            corrupted = corrupt_runs(calls, runs)
    except (SetupError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for i, probs in failed:
        for p in probs:
            print(f"FAILED {' '.join(calls[i]['argv'])[:120]}: {p}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {len(runs)} calls in {len(pass_s)} "
          f"pass(es), {len(failed)} failed")
    for i, call in enumerate(calls):
        med = statistics.median(r[1] for r in runs if r[0] == i)
        print(f"#   {med:7.3f} s  {' '.join(call['argv'])[:100]}")
    for name, value in metrics.items():
        print(f"{name:44s} {value:>14.6g} {units[name]}")
    attempted, n_failed = len(runs), len(failed)
    if args.wrong_reference:
        for i, label, caught in corrupted:
            if not caught:
                print(f"NOT CAUGHT {label}: {' '.join(calls[i]['argv'])[:120]}",
                      file=sys.stderr)
        print("# references corrupted: "
              + " ".join(sorted({label for _, label, _ in corrupted})))
        attempted, n_failed = len(corrupted), sum(c for *_, c in corrupted)
    if not args.trace:
        print(f"# call_tail_s is p{tail_pct:.1f} of {len(times)} calls")
    print(json.dumps({
        "correct": n_failed == 0,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
