"""5x5 matrices with symbolic scalar or 1-form entries.

SMatrix holds scalar ``Expr`` entries (group elements, Lie algebra
elements); FMatrix holds degree-1 ``FormExpr`` entries (connection
matrices).  Every product is the one loop ``_product``, which hands each
entry's pairs, in k order, to an entry sum: of scalar products, or one
``Chart.combine`` pass over forms (a ``ZERO`` scalar adds no term).
"""

from __future__ import annotations

from typing import Sequence

from .scalars import Expr, ZERO, conjugate, is_zero_expr, lift, normalize
from .forms import Chart, FormExpr

N = 5


class SMatrix:
    """5x5 matrix of scalar expressions."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence]):
        if len(rows) != N or any(len(r) != N for r in rows):
            raise ValueError("expected a 5x5 matrix")
        self.rows = tuple(tuple(normalize(lift(x)) for x in r) for r in rows)

    @staticmethod
    def identity() -> "SMatrix":
        return SMatrix([[1 if i == j else 0 for j in range(N)] for i in range(N)])

    def entry(self, i: int, j: int) -> Expr:
        """1-based indexing to match the printed matrices."""
        return self.rows[i - 1][j - 1]

    def __matmul__(self, other: "SMatrix") -> "SMatrix":
        return SMatrix(_product(self.rows, other.rows,
                                lambda pairs: sum((x * y for x, y in pairs), ZERO)))

    def __add__(self, other: "SMatrix") -> "SMatrix":
        return SMatrix([[self.rows[i][j] + other.rows[i][j] for j in range(N)]
                        for i in range(N)])

    def __sub__(self, other: "SMatrix") -> "SMatrix":
        return SMatrix([[self.rows[i][j] - other.rows[i][j] for j in range(N)]
                        for i in range(N)])

    def transpose(self) -> "SMatrix":
        return SMatrix([[self.rows[j][i] for j in range(N)] for i in range(N)])

    def conj(self) -> "SMatrix":
        return SMatrix([[conjugate(x) for x in r] for r in self.rows])

    def is_zero(self) -> bool:
        return all(is_zero_expr(x) for r in self.rows for x in r)

    def det(self) -> Expr:
        return normalize(_det([list(r) for r in self.rows]))

    def __repr__(self):
        from .scalars import to_text
        body = "\n".join("  [" + ", ".join(to_text(x) for x in r) + "]" for r in self.rows)
        return f"SMatrix(\n{body}\n)"


def _product(a, b, total) -> list:
    """The 5x5 product of row tuples ``a`` and ``b``: entry (i, j) is
    ``total`` of the pairs ``(a[i][k], b[k][j])``, k in order."""
    columns = list(zip(*b))
    return [[total(zip(row, column)) for column in columns] for row in a]


def _det(rows) -> Expr:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = lift(0)
    sign = 1
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total = total + rows[0][j] * _det(minor) * sign
        sign = -sign
    return total


class FMatrix:
    """5x5 matrix of degree-1 forms on a shared chart."""

    __slots__ = ("chart", "rows")

    def __init__(self, chart: Chart, rows: Sequence[Sequence[FormExpr]]):
        if len(rows) != N or any(len(r) != N for r in rows):
            raise ValueError("expected a 5x5 matrix")
        self.chart = chart
        self.rows = tuple(tuple(rows[i][j] for j in range(N)) for i in range(N))

    def entry(self, i: int, j: int) -> FormExpr:
        """1-based indexing to match the printed matrices."""
        return self.rows[i - 1][j - 1]

    def d(self) -> list:
        return [[f.d() for f in r] for r in self.rows]

    def wedge_square(self) -> list:
        """Entrywise wedge product of the matrix with itself."""
        return _product(self.rows, self.rows, lambda pairs: self.chart.combine(
            (f.wedge(g), None) for f, g in pairs))

    def conjugated_by(self, left: SMatrix, right: SMatrix) -> "FMatrix":
        """left @ self @ right with scalar entries acting on forms."""
        mid = _product(self.rows, right.rows, self.chart.combine)
        return FMatrix(self.chart, _product(left.rows, mid, lambda pairs: self.chart.combine(
            (f, s) for s, f in pairs)))
