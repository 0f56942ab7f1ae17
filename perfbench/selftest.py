"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

For every workload, at a tiny size:
- with the true references no call may fail, and the result line must
  carry exactly the end-to-end metrics that BENCHMARK.json names;
- with one reference at a time deliberately wrong, every check of every
  call must count as failed; over all workloads every reference label in
  checks.LABELS must be corrupted somewhere, which shows that each
  comparison can fail;
- the traced run must carry exactly the per-layer metrics.
Output that is empty, not an object, or holds NaN must count as a failed
call, not raise. Finally a copy of the benchmark without the package
sources must refuse to run: non-zero exit and no result line.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd, *args):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--seed", "5",
                           "--seconds", "1", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc.returncode, result, proc.stderr, lines


def _malformed_outputs():
    """Outputs that must each give a problem, not an exception."""
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from checks import check
    call = {"check": "line_mag", "ref": {"points": [0.0, 1.0]}}
    problems = []
    for stdout, stderr in [("", ""), ("[1, 2]", ""), ('"text"', ""),
                           ('{"results": {"t": 1.0, "magnitude": NaN}}', ""),
                           ('{"results": [1]}', "")]:
        try:
            if not check(call, 0, stdout, stderr):
                problems.append(f"output {stdout!r} passed its check")
        except Exception as exc:  # noqa: BLE001 - any raise is the failure
            problems.append(f"output {stdout!r} raised {type(exc).__name__}: {exc}")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    problems = _malformed_outputs()
    print(f"malformed outputs: {'ok' if not problems else 'FAILED'}", flush=True)
    from checks import LABELS
    corrupted = set()
    for w in (x["name"] for x in spec["workloads"]):
        rc, res, err, _ = _run(ROOT, "--workload", w, "--tiny")
        if rc or not res or res["failed"] or set(res["metrics"]) != e2e:
            problems.append(f"{w}: true references: rc={rc} {res} {err[-800:]}")
        rc, res, err, lines = _run(ROOT, "--workload", w, "--tiny", "--wrong-reference")
        if rc or not res or not res["attempted"] or res["failed"] != res["attempted"]:
            problems.append(f"{w}: wrong references not all caught: {res} {err[-800:]}")
        for line in lines:
            if line.startswith("# references corrupted:"):
                corrupted.update(line.split(":", 1)[1].split())
        rc, res, err, _ = _run(ROOT, "--workload", w, "--tiny", "--trace", "1")
        if rc or not res or res["failed"] or set(res["metrics"]) != per_layer:
            got = set(res["metrics"]) if res else set()
            problems.append(f"{w}: traced run: rc={rc} missing {per_layer - got} "
                            f"extra {got - per_layer} {err[-800:]}")
        print(f"{w}: {'ok' if not problems else 'FAILED'}", flush=True)
    if corrupted != LABELS:
        problems.append(f"references never corrupted: {sorted(LABELS - corrupted)}; "
                        f"unknown: {sorted(corrupted - LABELS)}")
    print(f"references corrupted one at a time: {len(corrupted)} of {len(LABELS)}")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    try:
        rc, res, _, _ = _run(bare, "--workload", "engine-validate")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if rc == 0 or res is not None:
        problems.append(f"without sources: rc={rc}, result {res}")
    print(f"without sources: exit {rc}")

    for p in problems:
        print(p, file=sys.stderr)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
