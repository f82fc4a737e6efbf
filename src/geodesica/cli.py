"""Command-line entry points.

    geodesica report  --census FILE --checks euler,slopes --json OUT.json
    geodesica pretzel --k 3 --check all
    geodesica euler   --knot 7_3 --json
    geodesica slopes  --knot 7_4 --json
    geodesica render  --knot "P(3,3,3)" --out chain.svg

euler, slopes, pretzel and render print or draw what the report's own
checks return; render draws the knot's own boundary configuration.  No
option sets a precision: every decision starts at 128 bits and doubles
until it certifies, up to 1024 bits for an Euler sign.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import BadArgument, GeodesicaError
from .mobius import render_svg
from .pipeline import (
    ALL_CHECKS,
    KnotRecord,
    euler_check,
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
    "recursion": ("lambda", "degree", "closed_form_matches"),
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
                          help="fork N-1 children that share the knots with this process")

    p_pret = sub.add_parser("pretzel", help="balanced-pretzel checks")
    p_pret.add_argument("--k", type=int, required=True)
    p_pret.add_argument("--check", default="all", choices=[*_PRETZEL_PARTS, "all"])

    p_euler = sub.add_parser("euler", help="Euler numbers at real places and the verdict")
    _add_census_arg(p_euler)
    p_euler.add_argument("--knot", required=True)
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
        # no knot entry holds this holonomy, so its irreducibility goes here
        out = {**pretzel_check(data), "lambda": data.lam.to_json(),
               "irreducibility": data.irreducibility}
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
        payload = {"knot": record.name, **euler_check(record)}
        if args.json:
            json.dump(payload, sys.stdout, indent=2, sort_keys=True)
            print()
        else:
            print(f"{record.name}: e = {tuple(payload['euler'])} verdict={payload['verdict']}")
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


if __name__ == "__main__":
    sys.exit(main())
