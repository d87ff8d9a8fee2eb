"""Steadiness report: repeated runs per workload, quartiles of each end-to-end metric.

    python3 perfbench/steadiness.py --runs 10 --first-seed 100
    python3 perfbench/steadiness.py --runs 5 --workloads detect_genus2

Runs the command from ``BENCHMARK.json`` once per seed, one run at a time,
from the repository root.  For each workload and metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median`` beside the metric's bound and a third of it; the
benchmark is steady when every spread except that of ``setup_s`` is below
a third of its bound.  The raw values go to ``perfbench/out/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}")
    res = json.loads(proc.stdout.splitlines()[-1])
    return {k: v["value"] for k, v in res["metrics"].items()}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    values: dict = {}
    steady = True
    for workload in args.workloads.split(","):
        runs = [run_once(spec, workload, args.first_seed + k) for k in range(args.runs)]
        values[workload] = runs
        print(f"== {workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = name == "setup_s" or spread < bound / 3
            steady &= ok
            print(f"  {name:<14} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:7.4f}  bound {bound} (/3 = {bound / 3:.4f})"
                  f"{'' if ok else '  TOO WIDE'}", flush=True)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "steadiness.json").write_text(json.dumps(values, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
