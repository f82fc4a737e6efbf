"""Runtime reach census of the package: which functions never run.

Runs, in one process under ``sys.setprofile``, the CLI subcommands over the
bundled census:

    report --checks <every check>    pretzel --k 3
    euler --knot 7_3                 slopes --knot 7_4
    render --knot "P(3,3,3)"         report --checks slopes --workers 2
    slopes --knot nope (refused, exit 2)

each through ``cli.main`` but ``slopes --knot 7_4``, which runs through the
process entry point ``cli.entry`` as the console script does, with
``os._exit`` intercepted.  Output files go to a temporary directory and
standard output and standard error are discarded.
Then it prints each function or method defined in ``src/geodesica`` whose
code never ran, with its line count, and the totals.  A function that never
runs here is a fallback, API kept on purpose, or code only tests reach.

    PYTHONPATH=src python3 tests/reach_probe.py

Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

import geodesica
from geodesica import cli
from geodesica.pipeline import ALL_CHECKS

PACKAGE = Path(geodesica.__file__).resolve().parent


def _commands(out_dir: Path) -> list[tuple[list[str], int, bool]]:
    """(arguments, expected exit status, whether to run through ``entry``)."""
    return [
        (["report", "--checks", ",".join(ALL_CHECKS), "--json", str(out_dir / "report.json")],
         0, False),
        (["report", "--checks", "slopes", "--workers", "2",
          "--json", str(out_dir / "report-workers.json")], 0, False),
        (["pretzel", "--k", "3"], 0, False),
        (["euler", "--knot", "7_3"], 0, False),
        (["slopes", "--knot", "7_4"], 0, True),
        (["render", "--knot", "P(3,3,3)", "--out", str(out_dir / "render.svg")], 0, False),
        (["slopes", "--knot", "nope"], 2, False),
    ]


class _Exited(Exception):
    """``os._exit`` as the probe intercepts it: the status, and no exit."""


def _exit(status: int):
    raise _Exited(status)


def _run(argv: list[str], through_entry: bool) -> int:
    """The exit status of the CLI on argv: ``cli.main``'s, or the one
    ``cli.entry`` hands to ``os._exit``."""
    if not through_entry:
        return cli.main(argv)
    saved = sys.argv, os._exit
    sys.argv, os._exit = ["geodesica", *argv], _exit
    try:
        cli.entry()
    except _Exited as exited:
        return exited.args[0]
    finally:
        sys.argv, os._exit = saved
    raise RuntimeError("cli.entry returned without ending the process")


def _definitions():
    """(path, first line, qualified name, line count) of every function and
    method in the package, nested ones too; the first line is the one its
    code object reports (the first decorator's, if any)."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    name = prefix + child.name
                    yield str(path), first, name, child.end_lineno - first + 1
                    yield from walk(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    yield from walk(child, prefix + child.name + ".")
                else:
                    yield from walk(child, prefix)

        yield from walk(tree, "")


def main() -> int:
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            ran.add((code.co_filename, code.co_firstlineno))

    with tempfile.TemporaryDirectory() as tmp:
        for argv, expected, through_entry in _commands(Path(tmp)):
            sink = io.StringIO()
            sys.setprofile(profile)
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    status = _run(argv, through_entry)
            finally:
                sys.setprofile(None)
            print(f"geodesica {' '.join(argv[:3])} ... -> exit {status}")
            if status != expected:
                print(sink.getvalue(), file=sys.stderr)
                return 1

    never = [
        (path, first, name, lines)
        for path, first, name, lines in _definitions()
        if (path, first) not in ran
    ]
    for path, first, name, lines in never:
        print(f"{Path(path).name}:{first} {name} ({lines} lines)")
    print(f"{len(never)} functions never ran, {sum(n for *_, n in never)} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
