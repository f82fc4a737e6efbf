"""Source-level lint: no ``assert`` statement in the package, and every
function the benchmark tracer wraps still exists.

``python -O`` strips asserts, so an assert can never stand in for a runtime
check; invariants raise a named ``GeodesicaError`` instead.
"""

import ast
import importlib
from pathlib import Path

import geodesica

PACKAGE = Path(geodesica.__file__).parent
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_no_assert_statements_in_package():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"


def test_every_traced_function_resolves():
    # read TRACED from the source, so the benchmark directory stays untouched
    # (no import, no bytecode cache); resolve each name the way the tracer's
    # install() does, which raises LookupError on a name that is gone
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    traced = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "TRACED" for t in node.targets)
    )
    assert traced
    missing = []
    for _, module, path in traced:
        owner = importlib.import_module(f"geodesica.{module}")
        *parents, attr = path.split(".")
        for p in parents:
            owner = getattr(owner, p)
        if not callable(vars(owner).get(attr)):
            missing.append(f"{module}.{path}")
    assert not missing, f"traced functions not in the package: {missing}"
