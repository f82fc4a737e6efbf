"""Compare two sets of benchmark results saved with ``run.py --save``.

    python3 perfbench/compare.py --base perfbench/baseline.json --new a.json b.json

For every workload and metric present on both sides it prints the quartiles
of each side.  For an end-to-end metric it also prints the share by which the
new median is worse (positive) or better (negative) than the base median: a
share above the metric's bound in ``BENCHMARK.json`` is a regression, and a
base spread (quartile distance over median) above the bound leaves the metric
unresolved.  Result sets taken under different fingerprints
(Python, mpmath and its backend, nproc) are refused.  Exit status: 0 when
nothing regressed, 1 on a regression, 2 when the sets cannot be compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths):
    results = []
    for p in paths:
        results.extend(json.loads(Path(p).read_text()))
    return results


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_metric(results):
    out = {}
    for r in results:
        for name, m in r["metrics"].items():
            out.setdefault((r["workload"], r["trace"], name), []).append(m["value"])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="compare saved benchmark result sets")
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)
    base, new = load(args.base), load(args.new)
    prints = {json.dumps(r["fingerprint"], sort_keys=True) for r in base + new}
    if len(prints) != 1:
        print("refusing to compare: fingerprints differ:", *sorted(prints), sep="\n  ")
        return 2
    if not all(r["correct"] for r in base + new):
        print("refusing to compare: a result set failed its correctness gate")
        return 2
    bounds = {m["name"]: m for m in json.loads(SPEC.read_text())["end_to_end"]}
    b, n = by_metric(base), by_metric(new)
    regressed = False
    print(f"{'workload':14s} {'metric':42s} {'base q1/med/q3':>30s} {'new q1/med/q3':>30s}  verdict")
    for key in sorted(b.keys() & n.keys()):
        workload, _, name = key
        bq, nq = quartiles(b[key]), quartiles(n[key])
        verdict = ""
        if name in bounds:
            bound = bounds[name]["bound"]
            sign = 1 if bounds[name]["better"] == "lower" else -1
            change = sign * (nq[1] - bq[1]) / bq[1]
            if (bq[2] - bq[0]) / bq[1] > bound:
                verdict = "unresolved"
            elif change > bound:
                verdict, regressed = f"REGRESSION {change:+.1%}", True
            else:
                verdict = f"ok {change:+.1%}"
        fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
        print(f"{workload:14s} {name:42s} {fmt(bq):>30s} {fmt(nq):>30s}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
