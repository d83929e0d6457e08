#!/usr/bin/env python3
"""Steadiness self-test of the serve benchmark.

Runs perfbench/run.py on each workload in two sets of runs, one seed per
run (set 1 on seeds 1.., set 2 on seeds 1001..), and reports for every
end-to-end metric each set's median and quartiles, the quartile spread
as a share of the median against the metric's bound in BENCHMARK.json,
and whether set 2's median is worse than set 1's by more than the bound.
Run from the repository root:

    python3 perfbench/steady.py --runs 10 [--workload road-serve ...]

Exits 1 if any spread exceeds its bound, or a second median is worse
than the first by more than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys

FIRST_SEEDS = (1, 1001)    # one set of runs per first seed


def run(workload, seed, seconds):
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                       stdout=subprocess.PIPE, timeout=900)
    last = r.stdout.decode().strip().split("\n")[-1]
    doc = json.loads(last)
    if r.returncode != 0 or not doc["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed\n{r.stdout.decode()}")
    return {k: v["value"] for k, v in doc["metrics"].items()}


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    a = ap.parse_args()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for w in a.workload or [w["name"] for w in bench["workloads"]]:
        sets = []
        for first in FIRST_SEEDS:
            rows = []
            for seed in range(first, first + a.runs):
                rows.append(run(w, seed, bench["run_seconds"]))
                print(f"   {w} seed {seed}: " + " ".join(
                    f"{k} {v:.6g}" for k, v in rows[-1].items()), flush=True)
            sets.append(rows)
        print(f"== {w}: {a.runs} runs per set")
        for name, m in bounds.items():
            meds = []
            for i, rows in enumerate(sets):
                xs = [r[name] for r in rows]
                q1, med, q3 = statistics.quantiles(xs, n=4)
                spread = (q3 - q1) / med
                flag = "" if spread <= m["bound"] else "  OVER BOUND"
                ok = ok and not flag
                print(f"  {name:12s} set {i + 1}: median {med:.6g} {m['unit']}  "
                      f"q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3f} "
                      f"(bound {m['bound']}){flag}")
                meds.append(statistics.median(xs))
            worse = (meds[1] - meds[0]) / meds[0]
            if m["better"] == "higher":
                worse = -worse
            flag = "  WORSE THAN BOUND" if worse > m["bound"] else ""
            ok = ok and not flag
            print(f"  {name:12s} set 2 vs set 1: {worse:+.3f}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
