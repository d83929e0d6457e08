#!/usr/bin/env python3
"""Per-class cost of the traced serve replay against Engine.query.

    python3 tools/classratio.py [.perfbench/road-serve-1/trace.json ...]

perfbench/run.py --trace 1 fails a run when, for some query class (memo
hit, warm, cold), the median of the replay's `engine.query` spans is not
within [0.5, 2] of the median `Engine.query` time of the same queries.
This reads the traces such runs leave behind and prints, per class, the
two medians and their ratio against that band, so an engine change sees
its margin before the benchmark does. With no argument it reads every
`.perfbench/*/trace.json` under the current directory. Exits 1 if a
class is outside the band, 2 if there is no trace to read.
"""

import glob
import json
import os
import statistics
import sys

CLASSES = ("hit", "warm", "cold")
LOW, HIGH = 0.5, 2.0


def ratios(path):
    with open(path) as f:
        tr = json.load(f)
    span = {s["qid"]: s["end"] - s["start"]
            for s in tr["spans"] if s["name"] == "engine.query"}
    rows = []
    for c in CLASSES:
        qs = [q for q in tr["queries"] if q["class"] == c]
        if not qs:
            continue
        mine = statistics.median(span[q["qid"]] for q in qs)
        real = statistics.median(q["engine"]["s"] for q in qs)
        rows.append((c, len(qs), mine, real, mine / real))
    return rows


def main():
    paths = sys.argv[1:] or sorted(glob.glob(os.path.join(".perfbench", "*", "trace.json")))
    if not paths:
        print("classratio: no trace.json (run perfbench/run.py --trace 1 first)",
              file=sys.stderr)
        sys.exit(2)
    ok = True
    for path in paths:
        print(path)
        try:
            rows = ratios(path)
        except OSError as e:
            print(f"  unreadable: {e}")
            ok = False
            continue
        print(f"  {'class':<6}{'n':>5}{'replay p50':>14}{'Engine p50':>14}{'ratio':>8}")
        for c, n, mine, real, r in rows:
            inside = LOW <= r <= HIGH
            ok = ok and inside
            print(f"  {c:<6}{n:>5}{mine * 1e6:>12.2f}us{real * 1e6:>12.2f}us{r:>8.2f}"
                  f"  {'in' if inside else 'OUTSIDE'} [{LOW}, {HIGH}]")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
