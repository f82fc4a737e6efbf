"""Command-line entry points.

    geodesica report  --census FILE --checks euler,slopes --json OUT.json
    geodesica pretzel --k 3 --check all
    geodesica euler   --knot 7_3 --place all --json
    geodesica slopes  --knot 7_4 --json
    geodesica render  --knot "P(3,3,3)" --out chain.svg

slopes, pretzel and render print or draw what the report's own checks
return; render draws the knot's own boundary configuration.  No option sets
a precision: every decision starts at 128 bits and doubles until it
certifies, up to 1024 bits for an Euler sign.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import BadArgument, GeodesicaError
from .eulerclass import euler_number, euler_tuple
from .mobius import render_svg
from .pipeline import (
    ALL_CHECKS,
    KnotRecord,
    get_knot,
    load_census,
    pretzel_check,
    run,
    slopes_check,
    summarize,
)
from .pretzel import pretzel_holonomy

# keys of the report's pretzel entry that each ``pretzel --check`` part prints
_PRETZEL_PARTS = {
    "recursion": ("lambda", "degree", "recursion_matches_closed_form"),
    "relators": ("entry_identities",),
    "census": ("root_census",),
    "tangency": ("tangency_chain",),
}


def _add_census_arg(p):
    p.add_argument("--census", default=None, help="census JSON path (default: bundled)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="geodesica")
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="run checks over the census")
    _add_census_arg(p_report)
    p_report.add_argument("--checks", default="euler",
                          help=f"comma-separated subset of {','.join(ALL_CHECKS)}")
    p_report.add_argument("--json", dest="json_out", default=None,
                          help="write the machine-readable report here")
    p_report.add_argument("--knot", action="append", default=None,
                          help="restrict to named knots (repeatable)")
    p_report.add_argument("--workers", type=int, default=1,
                          help="bounded process pool for per-knot fan-out")

    p_pret = sub.add_parser("pretzel", help="balanced-pretzel checks")
    p_pret.add_argument("--k", type=int, required=True)
    p_pret.add_argument("--check", default="all", choices=[*_PRETZEL_PARTS, "all"])

    p_euler = sub.add_parser("euler", help="Euler numbers at real places")
    _add_census_arg(p_euler)
    p_euler.add_argument("--knot", required=True)
    p_euler.add_argument("--place", default="all", help='"all" or a place index')
    p_euler.add_argument("--json", action="store_true")

    p_slopes = sub.add_parser("slopes", help="boundary-slope trace-condition systems")
    _add_census_arg(p_slopes)
    p_slopes.add_argument("--knot", required=True)
    p_slopes.add_argument("--json", action="store_true")

    p_render = sub.add_parser("render", help="SVG of a boundary configuration")
    _add_census_arg(p_render)
    p_render.add_argument("--knot", required=True)
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
        report = run(records, checks=checks, names=args.knot, workers=args.workers)
        print(summarize(report), file=sys.stderr)
        if args.json_out:
            _write_file(args.json_out, report.to_json_bytes(), "--json")
        else:
            sys.stdout.write(report.to_json_bytes().decode())
        return report.exit_status

    if args.command == "pretzel":
        data = pretzel_holonomy(args.k)
        out = {**pretzel_check(data), "lambda": data.lam.to_json()}
        if args.check != "all":
            keys = _PRETZEL_PARTS[args.check]
            if not all(key in out for key in keys):
                raise BadArgument(
                    f"{data.rep.presentation.name}: the pretzel check has no "
                    f"{args.check} part at k={args.k}"
                )
            out = {"k": out["k"], **{key: out[key] for key in keys}}
        json.dump(out, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0

    if args.command == "euler":
        record = _knot_with_rep(args)
        if args.place == "all":
            results = euler_tuple(record.rep)
        else:
            places = record.rep.field.real_places()
            place = places[_place_index(record, args.place, len(places))]
            results = (euler_number(record.rep, place),)
        payload = {
            "knot": record.name,
            "euler": [r.n for r in results],
            "places": [
                # the Euler numbers are exact integers
                {"index": r.place_index, "n": r.n, "residual": 0.0,
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
        record = _knot_with_rep(args)
        if not record.slope_cases:
            raise BadArgument(f"{record.name}: no slope case descriptors")
        payload = {"knot": record.name, **slopes_check(record)}
        if args.json:
            json.dump(payload, sys.stdout, indent=2, sort_keys=True)
            print()
        else:
            print(f"{record.name}: slopes {{{', '.join(payload['slopes'])}}} "
                  f"(exhaustive: {payload['exhaustive']})")
        return 0

    if args.command == "render":
        clines = _knot_with_rep(args).clines
        _write_file(args.out, render_svg(clines).encode(), "--out")
        print(f"wrote {args.out} ({len(clines)} clines)", file=sys.stderr)
        return 0

    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


def _write_file(path: str, data: bytes, flag: str) -> None:
    """Write an output file; a path that cannot be written is refused with
    the flag that named it."""
    try:
        with open(path, "wb") as f:
            f.write(data)
    except OSError as exc:
        raise BadArgument(f"{flag} {path}: cannot write: {exc.strerror}") from None


def _knot_with_rep(args) -> KnotRecord:
    record = get_knot(load_census(args.census), args.knot)
    if record.rep is None:
        raise BadArgument(f"{record.name} is a stub awaiting representation data")
    return record


def _place_index(record: KnotRecord, text: str, count: int) -> int:
    """The real-place index ``--place`` names; anything but 0..count-1 is refused."""
    try:
        index = int(text)
    except ValueError:
        index = -1
    if not 0 <= index < count:
        raise BadArgument(
            f"{record.name}: --place must be 'all' or a real place index "
            f"0..{count - 1}, got {text!r}"
        )
    return index


if __name__ == "__main__":
    sys.exit(main())
