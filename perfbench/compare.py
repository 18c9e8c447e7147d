#!/usr/bin/env python3
"""Compare two sets of perfbench runs.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds one JSON record per run, as `perfbench` appends them to
its `--out` file (default `.bench_results/runs.jsonl`).  For every
(workload, metric) of the untraced runs the script prints both sides'
median and quartiles and whether the change stays within the metric's
bound: the `end_to_end` bounds of BENCHMARK.json, and DEFAULT_BOUND for the
per-op medians the records also carry.  A metric whose base-side spread
(quartile distance over median) exceeds its bound is reported as
unresolved, not as unchanged.  The script refuses to compare runs from
different hosts, and warns when the same workload and seed were given
different inputs.  Exit status: 0 all within bounds, 1 a regression past a
bound, 2 refused.
"""

import json
import os
import statistics
import sys

DEFAULT_BOUND = 0.10
HOST_KEYS = ("nproc", "cpu", "rustc")


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def bounds():
    spec = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
    with open(spec) as f:
        bench = json.load(f)
    return {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def series(records):
    out = {}
    for r in records:
        if r.get("trace"):
            continue
        for group in ("metrics", "op_metrics"):
            for name, m in r.get(group, {}).items():
                out.setdefault((r["workload"], name), []).append(m["value"])
    return out


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, change = load(argv[1]), load(argv[2])
    hosts = {json.dumps({k: r["host"].get(k) for k in HOST_KEYS}, sort_keys=True) for r in base + change}
    if len(hosts) != 1:
        print("refused: the runs come from different hosts:", file=sys.stderr)
        for h in sorted(hosts):
            print("  " + h, file=sys.stderr)
        return 2
    print("host:", hosts.pop())
    print("revisions: base", sorted({r["revision"] for r in base}), "change", sorted({r["revision"] for r in change}))
    sums = {}
    for r in base + change:
        sums.setdefault((r["workload"], r["seed"]), set()).add(r["checksum"])
    for (workload, seed), found in sorted(sums.items()):
        if len(found) > 1:
            print(f"warning: {workload} seed {seed} ran on different inputs ({', '.join(sorted(found))})")

    limits = bounds()
    a, b = series(base), series(change)
    worst = 0
    print(f"{'workload':<11} {'metric':<22} {'base q1/med/q3':<34} {'change q1/med/q3':<34} {'change':>8} {'bound':>6}  verdict")
    for key in sorted(set(a) & set(b)):
        workload, name = key
        bound, better = limits.get(name, (DEFAULT_BOUND, "higher" if name == "ops_per_s" else "lower"))
        qa, qb = quartiles(a[key]), quartiles(b[key])
        if qa[1] == 0:
            verdict, delta = ("pass" if qb[1] == 0 else "changed from 0"), 0.0
        else:
            delta = (qb[1] - qa[1]) / qa[1]
            worse = delta if better == "lower" else -delta
            spread = (qa[2] - qa[0]) / qa[1]
            if spread > bound:
                verdict = "unresolved (base spread %.3f > bound)" % spread
            elif worse > bound:
                verdict = "REGRESSION"
                worst = 1
            else:
                verdict = "pass"
        fmt = lambda q: "%.4g / %.4g / %.4g" % q
        print(f"{workload:<11} {name:<22} {fmt(qa):<34} {fmt(qb):<34} {delta:>+8.3f} {bound:>6}  {verdict}")
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv))
