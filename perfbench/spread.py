"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--out FILE]

Runs perfbench/run.py once per seed and workload, one run at a time, with
the run length from BENCHMARK.json. For each metric it prints the median,
the quartiles (statistics.quantiles, n=4) and their distance as a share
of the median, next to the metric's bound; a spread above a third of
the bound is flagged. --out writes every value as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text):
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {}
    for w in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w, "--seed",
                 str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if res["failed"]:
                print(f"{w} seed {seed}: {res['failed']} failed\n{proc.stderr}")
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
        record[w] = values
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            flag = "  <-- above bound/3" if share > bounds[name] / 3 else ""
            print(f"{w:17s} {name:12s} median {med:9.4f} q1 {q1:9.4f} q3 {q3:9.4f} "
                  f"spread {share:6.3f} bound {bounds[name]:.2f}{flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1))


if __name__ == "__main__":
    sys.exit(main())
