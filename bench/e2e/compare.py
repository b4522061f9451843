#!/usr/bin/env python3
"""Parent-vs-change comparison of end-to-end results (stdlib only).

  python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR [--claim WORKLOAD:METRIC ...]

Each directory holds untraced results saved by `run.py --out DIR`
(<workload>.s<seed>.t0.json); runs of the two sides are paired by
workload and seed.  The rules are the choosing-metrics guide's:

  * at least 10 pairs per workload, alternating which side ran first;
  * a claimed gain (--claim) counts only when the change wins at least
    9/10 of the pairs (ties count for neither) and the medians differ by
    more than the parent's interquartile range;
  * every other metric x workload pair must not be worse than the
    parent's median by more than its BENCHMARK.json bound; where the
    parent's own spread (IQR / median) is wider than the bound it is
    "unresolved", unless every change run reads better than every parent
    run;
  * a rise in the failed share (failed / attempted) is "failed-share up".

Prints one row per workload; exits 1 on any regression, unmet claim,
failed-share rise or missing pairs.
"""

import argparse
import glob
import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10


def load(directory):
    runs = {}
    for path in glob.glob(os.path.join(directory, "*.t0.json")):
        with open(path) as f:
            r = json.load(f)
        runs[(r["workload"], r["seed"])] = r
    return runs


def iqr(values):
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def judge(metric, parent, change, claimed):
    """Verdict for one metric of one workload over paired values."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    mp, mc = statistics.median(parent), statistics.median(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    delta = (mc - mp) / mp if mp else 0.0
    cell = f"{mp:.4g}->{mc:.4g} ({delta:+.1%})"
    if claimed:
        met = wins >= 0.9 * len(parent) and sign * (mc - mp) > iqr(parent)
        return cell + (" gain" if met else " CLAIM-NOT-MET"), met
    worse = -sign * delta
    if mp and iqr(parent) / abs(mp) > metric["bound"]:
        if min(sign * c for c in change) > max(sign * p for p in parent):
            return cell + " better", True
        return cell + " unresolved", True
    if worse > metric["bound"]:
        return cell + " REGRESSION", False
    return cell + " ok", True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--claim", action="append", default=[],
                    help="WORKLOAD:METRIC the change claims to improve")
    args = ap.parse_args()
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    claims = {tuple(c.split(":", 1)) for c in args.claim}
    parent, change = load(args.parent), load(args.change)

    ok = True
    for w in (x["name"] for x in spec["workloads"]):
        keys = sorted(k for k in parent if k[0] == w and k in change)
        if len(keys) < MIN_PAIRS:
            print(f"{w}: {len(keys)} pairs, need {MIN_PAIRS}")
            ok = False
            continue
        parent_first = sum(1 for k in keys
                           if parent[k]["finished_at"] < change[k]["finished_at"])
        cells = [f"{w:<13} pairs={len(keys)}"]
        if abs(2 * parent_first - len(keys)) > 1:
            cells.append(f"NOT-ALTERNATING(parent first {parent_first}/{len(keys)})")
            ok = False
        for m in spec["end_to_end"]:
            p = [parent[k]["metrics"][m["name"]]["value"] for k in keys]
            c = [change[k]["metrics"][m["name"]]["value"] for k in keys]
            cell, good = judge(m, p, c, (w, m["name"]) in claims)
            cells.append(f"{m['name']}: {cell}")
            ok = ok and good

        def failed_share(runs):
            return (sum(runs[k]["failed"] for k in keys) /
                    max(1, sum(runs[k]["attempted"] for k in keys)))

        fp, fc = failed_share(parent), failed_share(change)
        cells.append(f"failed: {fp:.4g}->{fc:.4g}" +
                     (" FAILED-SHARE-UP" if fc > fp else " ok"))
        ok = ok and fc <= fp
        print(" | ".join(cells))
    for w, m in claims:
        if w not in {x["name"] for x in spec["workloads"]} or \
                m not in {x["name"] for x in spec["end_to_end"]}:
            print(f"unknown claim {w}:{m}")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
