"""The two exact linear solvers against the ones they replaced
(``linear_reference``): the relator-defect system E m = b over Z, solved by a
column echelon form, and the two-unknown endpoint system, solved by Cramer's
rule; sympy's ``linsolve`` is a second oracle for the endpoint verdicts."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import linear_reference
from geodesica.errors import NoLiftExists
from geodesica.eulerclass import solve_integer_system
from geodesica.mobius import (
    VERDICT_INCONSISTENT,
    VERDICT_NO_REAL_PAIR,
    VERDICT_NONZERO,
    VERDICT_ONLY_ZERO,
    _solve_uniq,
)

_INT = st.integers(-5, 5)


@st.composite
def _integer_systems(draw):
    """E of 1..3 rows and 1..4 columns with b either E x, solvable, or
    drawn on its own, mostly not."""
    r, c = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    E = [[draw(_INT) for _ in range(c)] for _ in range(r)]
    if draw(st.booleans()):
        x = [draw(_INT) for _ in range(c)]
        b = [sum(e * v for e, v in zip(row, x)) for row in E]
    else:
        b = [draw(_INT) for _ in range(r)]
    return E, b


def _solution(solve, E, b):
    try:
        return solve(E, b)
    except NoLiftExists:
        return None


@given(_integer_systems())
@settings(max_examples=500, deadline=None)
@example(([[1, -1]], [-3]))
@example(([[2, 0], [0, 2]], [1, 2]))
@example(([[0, 0]], [1]))
@example(([[2, 4], [1, 2]], [2, 2]))
def test_integer_solver_agrees_with_the_reference(system):
    E, b = system
    m = _solution(solve_integer_system, E, b)
    want = _solution(linear_reference.solve_integer_system, E, b)
    assert (m is None) == (want is None)
    if m is not None:
        assert [sum(e * v for e, v in zip(row, m)) for row in E] == b


@pytest.mark.parametrize("E, b, message", [
    ([[2, 0], [0, 2]], [1, 2], "relator defect system has no integer solution"),
    ([[1, 1], [2, 2]], [1, 3], "relator defect system is inconsistent"),
    ([[0, 0]], [1], "relator defect system is inconsistent"),
])
def test_integer_solver_names_why_there_is_no_lift(E, b, message):
    with pytest.raises(NoLiftExists, match=message):
        solve_integer_system(E, b)


def test_a_free_variable_stays_zero():
    # the second column reduces to zero against the first, so y_2 is free
    assert solve_integer_system([[2, 6]], [4]) == [2, 0]
    assert solve_integer_system([[1, -1, 0], [0, 0, 0]], [5, 0]) == [5, 0, 0]


_Q = st.fractions(min_value=-4, max_value=4, max_denominator=3)
_NONZERO_Q = _Q.filter(bool)
_ENTRY = st.one_of(st.just(Fraction(0)), _Q)


@st.composite
def _endpoint_rows(draw):
    """Up to four rows (a, b, c): drawn, zero, multiples of an earlier row,
    or such a multiple with its constant moved, so that dependent and
    inconsistent rows come up; then, half the time, every constant is reset
    so the rows pass through a drawn small integer point (e1, e2)."""
    rows = []
    for kind in draw(st.lists(st.sampled_from(["drawn", "zero", "multiple", "moved"]),
                              max_size=4)):
        if kind == "zero":
            rows.append((Fraction(0),) * 3)
        elif kind == "drawn" or not rows:
            rows.append(tuple(draw(_ENTRY) for _ in range(3)))
        else:
            f = draw(_Q)
            a, b, c = (f * x for x in draw(st.sampled_from(rows)))
            rows.append((a, b, c + draw(_NONZERO_Q) if kind == "moved" else c))
    if draw(st.booleans()):
        e1, e2 = (Fraction(draw(st.integers(-3, 3))) for _ in range(2))
        rows = [(a, b, -(a * e1 + b * e2)) for a, b, _ in rows]
    return rows


def _rows(*rows):
    return [tuple(Fraction(x) for x in row) for row in rows]


# (e1, e2) = (2, 1): e1^2 = 4 e2, the double root sigma = 1 is a real pair
_DOUBLE_ROOT = _rows((1, 0, -2), (0, 1, -1))
# (e1, e2) = (0, 1): e1 = 0 but e2 is not, and sigma = +-i
_IMAGINARY_PAIR = _rows((1, 0, 0), (0, 1, -1))
# (e1, e2) = (0, -1): sigma = +-1
_REAL_PAIR = _rows((1, 0, 0), (0, 1, 1))
# the first two rows meet at (0, 0), which misses the third
_THIRD_ROW_MISSES = _rows((1, 0, 0), (0, 1, 0), (1, 1, 1))

_ENDPOINT_CASES = [
    (_rows((1, 0, 0), (0, 1, 0)), VERDICT_ONLY_ZERO),
    (_rows((1, 1, 0), (1, -1, 0), (2, 0, 0)), VERDICT_ONLY_ZERO),
    (_DOUBLE_ROOT, VERDICT_NONZERO),
    (_IMAGINARY_PAIR, VERDICT_NO_REAL_PAIR),
    (_REAL_PAIR, VERDICT_NONZERO),
    (_THIRD_ROW_MISSES, VERDICT_INCONSISTENT),
    (_rows((0, 0, 1)), VERDICT_INCONSISTENT),
    (_rows((0, 0, 0), (0, 0, 2)), VERDICT_INCONSISTENT),
    (_rows((1, 2, 3), (2, 4, 6)), VERDICT_NONZERO),
    (_rows((0, 0, 0), (1, 2, 3), (2, 4, 5)), VERDICT_INCONSISTENT),
    (_rows((0, 0, 0)), VERDICT_NONZERO),
    ([], VERDICT_NONZERO),
]


@pytest.mark.parametrize("rows, verdict", _ENDPOINT_CASES)
def test_endpoint_verdicts(rows, verdict):
    assert _solve_uniq(rows) == linear_reference.solve_uniq(rows) == verdict


@given(_endpoint_rows())
@settings(max_examples=1000, deadline=None)
def test_endpoint_solver_agrees_with_the_reference(rows):
    assert _solve_uniq(rows) == linear_reference.solve_uniq(rows)


def _linsolve_verdict(rows) -> str:
    sympy = pytest.importorskip("sympy")
    e1, e2 = sympy.symbols("e1 e2")
    equations = [sum(sympy.Rational(x.numerator, x.denominator) * v
                     for x, v in zip(row, (e1, e2, 1))) for row in rows]
    # linsolve reads an empty list of equations as inconsistent
    solutions = sympy.linsolve(equations or [sympy.S.Zero], [e1, e2])
    if solutions == sympy.EmptySet:
        return VERDICT_INCONSISTENT
    (x, y), = solutions
    if x.free_symbols or y.free_symbols:
        return VERDICT_NONZERO
    if x == y == 0:
        return VERDICT_ONLY_ZERO
    return VERDICT_NO_REAL_PAIR if x * x < 4 * y else VERDICT_NONZERO


@given(_endpoint_rows())
@settings(max_examples=100, deadline=None)
def test_endpoint_solver_agrees_with_linsolve(rows):
    assert _solve_uniq(rows) == _linsolve_verdict(rows)


@pytest.mark.parametrize("rows, verdict", _ENDPOINT_CASES)
def test_linsolve_oracle_on_the_explicit_cases(rows, verdict):
    assert _linsolve_verdict(rows) == verdict
