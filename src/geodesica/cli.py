"""Command-line entry points.

    geodesica report  --census FILE --checks euler,slopes --precision-bits 128 --json OUT.json
    geodesica pretzel --k 3 --check all
    geodesica euler   --knot 7_3 --place all --precision-bits 128 --json
    geodesica slopes  --knot 7_4 --json
    geodesica render  --knot "P(3,3,3)" --config pretzel-chain --out chain.svg

GEODESICA_PRECISION_CAP overrides the precision-ladder cap.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import GeodesicaError
from .eulerclass import euler_number, euler_tuple
from .pipeline import (
    ALL_CHECKS,
    get_knot,
    load_census,
    pretzel_chain_clines,
    run,
    strip_74_clines,
    summarize,
)
from .mobius import render_svg
from .pretzel import (
    lambda_closed_formula,
    lambda_poly,
    psi_root_census,
    relator_factorization_check,
    tangency_chain,
)
from .slopes import slope_set_for_knot


def _add_census_arg(p):
    p.add_argument("--census", default=None, help="census JSON path (default: bundled)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="geodesica")
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="run checks over the census")
    _add_census_arg(p_report)
    p_report.add_argument("--checks", default="euler",
                          help=f"comma-separated subset of {','.join(ALL_CHECKS)}")
    p_report.add_argument("--precision-bits", type=int, default=128)
    p_report.add_argument("--json", dest="json_out", default=None,
                          help="write the machine-readable report here")
    p_report.add_argument("--knot", action="append", default=None,
                          help="restrict to named knots (repeatable)")
    p_report.add_argument("--workers", type=int, default=1,
                          help="bounded process pool for per-knot fan-out")

    p_pret = sub.add_parser("pretzel", help="balanced-pretzel checks")
    p_pret.add_argument("--k", type=int, required=True)
    p_pret.add_argument("--check", default="all",
                        choices=["recursion", "relators", "census", "tangency", "all"])
    p_pret.add_argument("--precision-bits", type=int, default=128)

    p_euler = sub.add_parser("euler", help="Euler numbers at real places")
    _add_census_arg(p_euler)
    p_euler.add_argument("--knot", required=True)
    p_euler.add_argument("--place", default="all", help='"all" or a place index')
    p_euler.add_argument("--precision-bits", type=int, default=128)
    p_euler.add_argument("--json", action="store_true")

    p_slopes = sub.add_parser("slopes", help="boundary-slope trace-condition systems")
    _add_census_arg(p_slopes)
    p_slopes.add_argument("--knot", required=True)
    p_slopes.add_argument("--json", action="store_true")

    p_render = sub.add_parser("render", help="SVG of a boundary configuration")
    _add_census_arg(p_render)
    p_render.add_argument("--knot", required=True)
    p_render.add_argument("--config", required=True, choices=["pretzel-chain", "74-strip"])
    p_render.add_argument("--precision-bits", type=int, default=128)
    p_render.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except GeodesicaError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "report":
        records = load_census(args.census)
        checks = tuple(c.strip() for c in args.checks.split(",") if c.strip())
        report = run(records, checks=checks,
                     precision_bits=args.precision_bits, names=args.knot,
                     workers=args.workers)
        print(summarize(report), file=sys.stderr)
        if args.json_out:
            with open(args.json_out, "wb") as f:
                f.write(report.to_json_bytes())
        else:
            sys.stdout.write(report.to_json_bytes().decode())
        return report.exit_status

    if args.command == "pretzel":
        k = args.k
        out = {"k": k}
        if args.check in ("recursion", "all"):
            lam = lambda_poly(k)
            out["lambda"] = lam.to_json()
            out["degree"] = lam.degree
            out["matches_closed_form"] = lam == lambda_closed_formula(k)
        if args.check in ("relators", "all"):
            out["entry_identities"] = relator_factorization_check(k)
        if args.check in ("census", "all"):
            c = psi_root_census(k, args.precision_bits)
            out["root_census"] = {
                "real_roots": c.real_count,
                "per_quadrant": list(c.per_quadrant),
                "right_half_moduli_exceed_one": c.right_half_moduli_exceed_one,
            }
        if args.check in ("tangency", "all"):
            out["tangency_chain"] = tangency_chain(k)
        json.dump(out, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0

    if args.command == "euler":
        records = load_census(args.census)
        record = get_knot(records, args.knot)
        if record.rep is None:
            print(f"{args.knot} is a stub awaiting representation data", file=sys.stderr)
            return 2
        if args.place == "all":
            results = euler_tuple(record.rep, args.precision_bits)
        else:
            places = record.rep.field.real_places()
            try:
                place = places[int(args.place)]
            except (ValueError, IndexError):
                print(f"--place must be 'all' or 0..{len(places) - 1}", file=sys.stderr)
                return 2
            results = (euler_number(record.rep, place, args.precision_bits),)
        payload = {
            "knot": record.name,
            "euler": [r.n for r in results],
            "places": [
                {"index": r.place_index, "n": r.n, "residual": r.residual,
                 "precision_bits": r.precision_bits}
                for r in results
            ],
        }
        if args.json:
            json.dump(payload, sys.stdout, indent=2, sort_keys=True)
            print()
        else:
            print(f"{record.name}: e = {tuple(r.n for r in results)}")
        return 0

    if args.command == "slopes":
        records = load_census(args.census)
        record = get_knot(records, args.knot)
        if record.rep is None or not record.slope_cases:
            print(f"{args.knot}: no slope case descriptors", file=sys.stderr)
            return 2
        res = slope_set_for_knot(record.rep, record.slope_cases)
        payload = {
            "knot": record.name,
            "slopes": [str(s) for s in res["slopes"]],
            "exhaustive": res["exhaustive"],
            "cases": [
                {"label": c["label"], "equations": [list(e) for e in c["equations"]],
                 "pairs": c["pairs"]}
                for c in res["cases"]
            ],
        }
        if args.json:
            json.dump(payload, sys.stdout, indent=2, sort_keys=True)
            print()
        else:
            print(f"{record.name}: slopes {{{', '.join(payload['slopes'])}}} "
                  f"(exhaustive: {res['exhaustive']})")
        return 0

    if args.command == "render":
        records = load_census(args.census)
        record = get_knot(records, args.knot)
        if args.config == "pretzel-chain":
            if record.kind != "pretzel":
                print("pretzel-chain needs a pretzel knot", file=sys.stderr)
                return 2
            clines = pretzel_chain_clines(record.pretzel_k, args.precision_bits)
        else:
            clines = strip_74_clines(record, args.precision_bits)
        svg = render_svg(clines)
        with open(args.out, "w") as f:
            f.write(svg)
        print(f"wrote {args.out} ({len(clines)} clines)", file=sys.stderr)
        return 0

    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
