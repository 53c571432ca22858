"""Matrices and vectors of operator polynomials.

Multiplication keeps the left-to-right operator order of the entries, and
the module provides the structured commutator constructions used by the
verification engines: outer commutators ``[u_j, v_k']``, row commutators
``[u_j, w_k]`` and scalar-vector commutators ``[s, v_j]``.
"""

from __future__ import annotations

from .algebra import Algebra, OperatorPolynomial, render
from .scalars import Scalar


class OperatorMatrix:
    """Rectangular array of operator polynomials over one algebra."""

    __slots__ = ("algebra", "rows", "cols", "entries")

    def __init__(self, algebra: Algebra, rows: int, cols: int, entries):
        entries = list(entries)
        if rows < 1 or cols < 1:
            raise ValueError("matrix dimensions must be positive")
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        for e in entries:
            algebra.require_compatible(e.algebra)
        self.algebra = algebra
        self.rows = rows
        self.cols = cols
        self.entries = entries

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zeros(cls, algebra: Algebra, rows: int, cols: int) -> "OperatorMatrix":
        return cls(algebra, rows, cols, [algebra.zero() for _ in range(rows * cols)])

    @classmethod
    def identity(cls, algebra: Algebra, n: int) -> "OperatorMatrix":
        return cls(
            algebra,
            n,
            n,
            [algebra.one() if i == j else algebra.zero() for i in range(n) for j in range(n)],
        )

    @classmethod
    def column(cls, algebra: Algebra, entries) -> "OperatorMatrix":
        entries = list(entries)
        return cls(algebra, len(entries), 1, entries)

    @classmethod
    def from_scalars(cls, algebra: Algebra, scalar_grid) -> "OperatorMatrix":
        rows = len(scalar_grid)
        cols = len(scalar_grid[0])
        return cls(
            algebra,
            rows,
            cols,
            [algebra.scalar(x) for row in scalar_grid for x in row],
        )

    # -- access ---------------------------------------------------------------

    def entry(self, i: int, j: int) -> OperatorPolynomial:
        return self.entries[i * self.cols + j]

    def row(self, i: int):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int):
        return [self.entry(i, j) for i in range(self.rows)]

    # -- algebra --------------------------------------------------------------

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check_same_shape(other)
        return OperatorMatrix(
            self.algebra,
            self.rows,
            self.cols,
            [a + b for a, b in zip(self.entries, other.entries)],
        )

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self + (-other)

    def __neg__(self) -> "OperatorMatrix":
        return OperatorMatrix(self.algebra, self.rows, self.cols, [-e for e in self.entries])

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        self.algebra.require_compatible(other.algebra)
        out = []
        for i in range(self.rows):
            row = self.row(i)
            for j in range(other.cols):
                acc = self.algebra.zero()
                for left, right in zip(row, other.col(j)):
                    # Bbar, Ibar and J are block-sparse: most factors are zero
                    if not (left.is_zero or right.is_zero):
                        acc = acc + left * right
                out.append(acc)
        return OperatorMatrix(self.algebra, self.rows, other.cols, out)

    def scale(self, c) -> "OperatorMatrix":
        c = Scalar.of(c)
        return OperatorMatrix(
            self.algebra, self.rows, self.cols, [e.scale(c) for e in self.entries]
        )

    def transpose(self) -> "OperatorMatrix":
        return OperatorMatrix(
            self.algebra,
            self.cols,
            self.rows,
            [self.entry(i, j) for j in range(self.cols) for i in range(self.rows)],
        )

    def conj(self) -> "OperatorMatrix":
        """Entrywise adjoint, no transposition."""
        return OperatorMatrix(
            self.algebra, self.rows, self.cols, [e.adjoint() for e in self.entries]
        )

    def adjoint(self) -> "OperatorMatrix":
        return self.conj().transpose()

    # -- predicates and rendering --------------------------------------------

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for e in self.entries)

    def equals(self, other: "OperatorMatrix") -> bool:
        return (self - other).is_zero

    def __eq__(self, other):
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        return self.equals(other)

    __hash__ = None

    def coeff_norm(self) -> float:
        return max((e.coeff_norm() for e in self.entries), default=0.0)

    def render(self) -> str:
        rows = []
        for i in range(self.rows):
            rows.append("[" + ", ".join(render(e) for e in self.row(i)) + "]")
        return "[" + ", ".join(rows) + "]"

    def _check_same_shape(self, other: "OperatorMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )
        self.algebra.require_compatible(other.algebra)

    def __repr__(self):
        return f"<OperatorMatrix {self.rows}x{self.cols} {self.render()}>"


def outer_commutator(u: OperatorMatrix, v: OperatorMatrix) -> OperatorMatrix:
    """Matrix with entry (j, k) = [u_j, v_k']; both arguments column vectors."""
    return row_commutator(u, v.conj())


def row_commutator(u: OperatorMatrix, w: OperatorMatrix) -> OperatorMatrix:
    """Matrix with entry (j, k) = [u_j, w_k]; both arguments column vectors."""
    _require_column(u)
    _require_column(w)
    u.algebra.require_compatible(w.algebra)
    entries = []
    for j in range(u.rows):
        for k in range(w.rows):
            entries.append(u.entry(j, 0).commutator(w.entry(k, 0)))
    return OperatorMatrix(u.algebra, u.rows, w.rows, entries)


def scalar_vec_commutator(s: OperatorPolynomial, v: OperatorMatrix) -> OperatorMatrix:
    """Column vector with entry j = [s, v_j]."""
    _require_column(v)
    return OperatorMatrix.column(
        v.algebra, [s.commutator(v.entry(j, 0)) for j in range(v.rows)]
    )


def matrix_vector_commutators(m: OperatorMatrix, w: OperatorMatrix, dagger: bool = False):
    """All commutators of matrix entries against vector components.

    Returns the named residual list [((i, j, k), poly), ...] with
    poly = [m_ij, w_k] (or [m_ij, w_k'] when ``dagger``), keeping only the
    nonzero entries.  This is how the matrix-against-vector commutation
    assertions of the check engines are evaluated.
    """
    _require_column(w)
    m.algebra.require_compatible(w.algebra)
    targets = [p.adjoint() for p in w.col(0)] if dagger else w.col(0)
    residuals = []
    for i in range(m.rows):
        for j in range(m.cols):
            entry = m.entry(i, j)
            for k, target in enumerate(targets):
                c = entry.commutator(target)
                if not c.is_zero:
                    residuals.append(((i + 1, j + 1, k + 1), c))
    return residuals


def _require_column(v: OperatorMatrix):
    if v.cols != 1:
        raise ValueError("expected a column vector")
