"""The two exact linear solvers as the package had them before the column
echelon form and Cramer's rule replaced them: ``solve_integer_system``, a
small Smith-style reduction of the relator-defect system E m = b over Z, and
``solve_uniq``, Gauss-Jordan elimination on the two-unknown endpoint system
whose rows (a, b, c) stand for a e1 + b e2 + c = 0.  Kept as the reference
the property tests compare the package's solvers against.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from geodesica.errors import NoLiftExists
from geodesica.mobius import (
    VERDICT_INCONSISTENT,
    VERDICT_NO_REAL_PAIR,
    VERDICT_NONZERO,
    VERDICT_ONLY_ZERO,
)


def solve_integer_system(E: Sequence[Sequence[int]], b: Sequence[int]) -> list[int]:
    """A particular integer solution of E m = b, or NoLiftExists.

    Elementary unimodular row/column operations (a small Smith reduction);
    sizes here are at most 2 x 3.
    """
    rows = [list(r) for r in E]
    rhs = list(b)
    ncols = len(rows[0]) if rows else 0
    col_ops: list[list[int]] = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    r = 0
    for c in range(ncols):
        if r >= len(rows):
            break
        # find a pivot in column >= c with minimal nonzero |entry|
        pivot = None
        for i in range(r, len(rows)):
            for j in range(c, ncols):
                v = rows[i][j]
                if v != 0 and (pivot is None or abs(v) < abs(rows[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        rows[r], rows[pi] = rows[pi], rows[r]
        rhs[r], rhs[pi] = rhs[pi], rhs[r]
        for row in rows:
            row[c], row[pj] = row[pj], row[c]
        col_ops[c], col_ops[pj] = col_ops[pj], col_ops[c]
        # clear the column below and the row to the right, Euclid-style
        changed = True
        while changed:
            changed = False
            for i in range(r + 1, len(rows)):
                if rows[i][c] != 0:
                    q = rows[i][c] // rows[r][c]
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
                    rhs[i] -= q * rhs[r]
                    if rows[i][c] != 0:
                        rows[r], rows[i] = rows[i], rows[r]
                        rhs[r], rhs[i] = rhs[i], rhs[r]
                    changed = True
            for j in range(c + 1, ncols):
                if rows[r][j] != 0:
                    q = rows[r][j] // rows[r][c]
                    for row in rows:
                        row[j] -= q * row[c]
                    col_ops[j] = [x - q * y for x, y in zip(col_ops[j], col_ops[c])]
                    if rows[r][j] != 0:
                        for row in rows:
                            row[c], row[j] = row[j], row[c]
                        col_ops[c], col_ops[j] = col_ops[j], col_ops[c]
                    changed = True
        r += 1

    y = [0] * ncols
    for i in range(len(rows)):
        d = rows[i][i] if i < ncols else 0
        if d == 0:
            if rhs[i] != 0:
                raise NoLiftExists("relator defect system is inconsistent")
            continue
        if rhs[i] % d != 0:
            raise NoLiftExists("relator defect system has no integer solution")
        y[i] = rhs[i] // d
    # m = col_ops . y  (col_ops[j] is the j-th transformed basis column)
    m = [0] * ncols
    for j in range(ncols):
        for i in range(ncols):
            m[i] += col_ops[j][i] * y[j]
    return m


def solve_uniq(rows) -> str:
    # solve [A | const] (e1, e2)^T = -const exactly
    A = [(r[0], r[1]) for r in rows]
    b = [-r[2] for r in rows]
    # Gaussian elimination on a 2-variable system
    pivots = []
    rows_red = [list(a) + [bb] for a, bb in zip(A, b)]
    for col in range(2):
        piv = None
        for i, row in enumerate(rows_red):
            if i not in [p[0] for p in pivots] and row[col] != 0:
                piv = i
                break
        if piv is None:
            continue
        pivots.append((piv, col))
        pr = rows_red[piv]
        for i, row in enumerate(rows_red):
            if i != piv and row[col] != 0:
                f = row[col] / pr[col]
                rows_red[i] = [x - f * y for x, y in zip(row, pr)]
    for i, row in enumerate(rows_red):
        if i not in [p[0] for p in pivots] and row[0] == 0 and row[1] == 0 and row[2] != 0:
            return VERDICT_INCONSISTENT
    if len(pivots) < 2:
        return VERDICT_NONZERO
    sol = [Fraction(0), Fraction(0)]
    for i, col in pivots:
        row = rows_red[i]
        sol[col] = row[2] / row[col]
    e1, e2 = sol
    if e1 == 0 and e2 == 0:
        return VERDICT_ONLY_ZERO
    disc = e1 * e1 - 4 * e2
    if disc < 0:
        return VERDICT_NO_REAL_PAIR
    return VERDICT_NONZERO
