"""Per-knot time to verdict, untraced.

Loads the census once, then times ``pipeline.run(records, checks,
names=[k])`` for every knot in census order and writes each knot's seconds
and report entry as JSON.  The entries are the serial reference that a pool
report must reproduce.

    python3 perfbench/perknot.py --src src --census C.json --checks euler,slopes --out OUT.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True)
    ap.add_argument("--census", required=True)
    ap.add_argument("--checks", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, args.src)
    from geodesica.pipeline import load_census, run

    records = load_census(args.census)
    checks = tuple(c for c in args.checks.split(",") if c)
    seconds, entries = {}, {}
    for record in records:
        t0 = time.perf_counter()
        report = run(records, checks=checks, names=[record.name])
        seconds[record.name] = time.perf_counter() - t0
        entries[record.name] = report.payload["knots"][0]
    with open(args.out, "w") as f:
        json.dump({"seconds": seconds, "entries": entries}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
