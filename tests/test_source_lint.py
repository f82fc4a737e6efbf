"""Source-level lint: no ``assert`` statement in the package.

``python -O`` strips asserts, so an assert can never stand in for a runtime
check; invariants raise a named ``GeodesicaError`` instead.
"""

import ast
from pathlib import Path

import geodesica

PACKAGE = Path(geodesica.__file__).parent


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
