"""Paired benchmark runs of two checkouts (stdlib only; pytest does not
collect this file).

    python3 tests/bench_pairs.py --base ../parent --new . --workload census-full \
        --seeds 2000-2009 --seconds 8

For each seed it runs ``perfbench/run.py --trace 0`` once in each checkout,
one run at a time, the base first on even pair numbers and the change first
on odd ones.  Each checkout runs its own benchmark code from its own
directory.  Then, per metric of the result line, it prints each side's
median and quartiles, how many pairs the change won (ties count for
neither), and whether the medians differ by more than the distance between
the base's quartiles.  A gain holds when the change wins at least nine tenths
of the pairs and the gap beats that distance.

For each end-to-end metric it then gives the no-regression verdict by the
rule of ``perfbench/compare.py``: ``REGRESSION`` when the change's median is
worse than the base median by more than the metric's bound share in
``BENCHMARK.json``, ``unresolved`` when the base's quartile distance over its
median exceeds that bound, ``ok`` otherwise.  Exits 1 when any run fails its
gate or any metric regresses.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seeds(text: str) -> list[int]:
    """'2000-2009' or '3,5,8' as a list of seeds."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """The metric values of one benchmark run in checkout."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode or not result.get("correct"):
        raise SystemExit(f"{checkout} seed {seed}: the run failed\n{proc.stdout}{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summary(name: str, lower_is_better: bool, base: list[float], new: list[float]) -> str:
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    wins = sum((n < b) if lower_is_better else (n > b) for b, n in zip(base, new))
    gap = (bm - nm) if lower_is_better else (nm - bm)
    return (
        f"{name:14s} base {bm:.3f} [{b1:.3f}, {b3:.3f}]  new {nm:.3f} [{n1:.3f}, {n3:.3f}]  "
        f"wins {wins}/{len(base)}  gap {gap:+.3f} vs base IQR {b3 - b1:.3f}: "
        f"{'beats' if gap > b3 - b1 else 'does not beat'} it"
    )


def verdict(bound: float, lower_is_better: bool, base: list[float], new: list[float]) -> str:
    """ok, REGRESSION or unresolved, on compare.py's quartiles."""
    b1, bm, b3 = statistics.quantiles(base, n=4)
    change = (statistics.median(new) - bm) / bm * (1 if lower_is_better else -1)
    if (b3 - b1) / bm > bound:
        return f"unresolved (base spread {(b3 - b1) / bm:.1%} > bound {bound:.0%})"
    if change > bound:
        return f"REGRESSION {change:+.1%} (bound {bound:.0%})"
    return f"ok {change:+.1%} (bound {bound:.0%})"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True, help="the parent's checkout")
    ap.add_argument("--new", type=Path, required=True, help="the change's checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, required=True, help="'2000-2009' or '3,5,8'")
    ap.add_argument("--seconds", type=float, default=8.0)
    args = ap.parse_args(argv)
    if len(args.seeds) < 2:
        ap.error("quartiles need at least two pairs")

    runs: dict[str, list[dict]] = {"base": [], "new": []}
    for i, seed in enumerate(args.seeds):
        order = ("base", "new") if i % 2 == 0 else ("new", "base")
        for side in order:
            runs[side].append(run(getattr(args, side), args.workload, seed, args.seconds))
        print(f"pair {i + 1}/{len(args.seeds)} seed {seed}, {order[0]} first: " + "  ".join(
            f"{k} {runs['base'][-1][k]:.3f} -> {runs['new'][-1][k]:.3f}"
            for k in runs["new"][-1]
        ), flush=True)

    spec = json.loads((args.new / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    lower = {name: m["better"] == "lower" for name, m in e2e.items()}
    print(f"{args.workload}, {len(args.seeds)} pairs, seeds {args.seeds[0]}..{args.seeds[-1]}, "
          f"{args.seconds:g} s per run")
    for name in runs["new"][0]:
        print(summary(name, lower.get(name, True),
                      [r[name] for r in runs["base"]], [r[name] for r in runs["new"]]))
    regressed = False
    for name in (n for n in e2e if n in runs["new"][0]):
        text = verdict(e2e[name]["bound"], lower[name],
                       [r[name] for r in runs["base"]], [r[name] for r in runs["new"]])
        regressed = regressed or text.startswith("REGRESSION")
        print(f"{name:14s} {text}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
