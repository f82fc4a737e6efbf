"""Runtime reach census of the package: which functions never run.

Runs, in one process under ``sys.setprofile``, the CLI subcommands over the
bundled census:

    report --checks <every check>    pretzel --k 3
    euler --knot 7_3                 slopes --knot 7_4
    render --knot "P(3,3,3)"         report --checks slopes --workers 2

Output files go to a temporary directory and standard output is discarded.
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
import sys
import tempfile
from pathlib import Path

import geodesica
from geodesica import cli
from geodesica.pipeline import ALL_CHECKS

PACKAGE = Path(geodesica.__file__).resolve().parent


def _commands(out_dir: Path) -> list[list[str]]:
    return [
        ["report", "--checks", ",".join(ALL_CHECKS), "--json", str(out_dir / "report.json")],
        ["report", "--checks", "slopes", "--workers", "2",
         "--json", str(out_dir / "report-workers.json")],
        ["pretzel", "--k", "3"],
        ["euler", "--knot", "7_3"],
        ["slopes", "--knot", "7_4"],
        ["render", "--knot", "P(3,3,3)", "--out", str(out_dir / "render.svg")],
    ]


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
        for argv in _commands(Path(tmp)):
            sink = io.StringIO()
            sys.setprofile(profile)
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    status = cli.main(argv)
            finally:
                sys.setprofile(None)
            print(f"geodesica {' '.join(argv[:3])} ... -> exit {status}")
            if status not in (0, 1):
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
