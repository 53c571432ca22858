"""Sparse matrices and vectors of operator polynomials.

Multiplication keeps the left-to-right operator order of the entries, and
the module provides the structured commutator constructions used by the
verification engines: outer commutators ``[u_j, v_k']``, row commutators
``[u_j, w_k]`` and scalar-vector commutators ``[s, v_j]``, all through
:func:`commutator_table`.  The block-diagonal constants of the doubled
model, Bbar and Dbar, are built by :func:`block_diag`.
"""

from __future__ import annotations

import itertools

from .algebra import Algebra, OperatorPolynomial, render
from .scalars import Scalar


class OperatorMatrix:
    """Rectangular array of operator polynomials over one algebra.

    Only the nonzero entries are stored: ``nonzero`` maps (row, col) to them
    in row-major order, and ``entry``, ``col`` and ``entries`` read
    the algebra's shared zero elsewhere.  Bbar and Dbar are block-sparse.
    """

    __slots__ = ("algebra", "rows", "cols", "nonzero")

    def __init__(self, algebra: Algebra, rows: int, cols: int, entries):
        entries = list(entries)
        if rows < 1 or cols < 1:
            raise ValueError("matrix dimensions must be positive")
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        for e in entries:
            if e.algebra is not algebra:
                algebra.require_compatible(e.algebra)
        self.algebra, self.rows, self.cols = algebra, rows, cols
        self.nonzero = {divmod(n, cols): e for n, e in enumerate(entries) if not e.is_zero}

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_nonzero(cls, algebra: Algebra, rows: int, cols: int, nonzero: dict):
        """Matrix from {(i, j): polynomial} over one algebra; zeros are dropped."""
        out = cls.__new__(cls)
        out.algebra, out.rows, out.cols = algebra, rows, cols
        out.nonzero = {key: nonzero[key] for key in sorted(nonzero) if nonzero[key].terms}
        return out

    @classmethod
    def identity(cls, algebra: Algebra, n: int) -> "OperatorMatrix":
        return cls.from_nonzero(algebra, n, n, {(i, i): algebra.one() for i in range(n)})

    @classmethod
    def column(cls, algebra: Algebra, entries) -> "OperatorMatrix":
        entries = list(entries)
        return cls(algebra, len(entries), 1, entries)

    # -- access ---------------------------------------------------------------

    def entry(self, i: int, j: int) -> OperatorPolynomial:
        return self.nonzero.get((i, j), self.algebra.zero())

    def col(self, j: int):
        return [self.entry(i, j) for i in range(self.rows)]

    @property
    def entries(self):
        keys = itertools.product(range(self.rows), range(self.cols))
        return list(map(self.nonzero.get, keys, itertools.repeat(self.algebra.zero())))

    # -- algebra --------------------------------------------------------------

    def _map(self, f) -> "OperatorMatrix":
        nonzero = {key: f(e) for key, e in self.nonzero.items()}
        return OperatorMatrix.from_nonzero(self.algebra, self.rows, self.cols, nonzero)

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check_same_shape(other)
        out = dict(self.nonzero)
        for key, e in other.nonzero.items():
            prev = out.get(key)
            out[key] = e if prev is None else prev + e
        return OperatorMatrix.from_nonzero(self.algebra, self.rows, self.cols, out)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check_same_shape(other)
        out = dict(self.nonzero)
        for key, e in other.nonzero.items():
            prev = out.get(key)
            out[key] = -e if prev is None else prev - e
        return OperatorMatrix.from_nonzero(self.algebra, self.rows, self.cols, out)

    def __neg__(self) -> "OperatorMatrix":
        return self._map(lambda e: -e)

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ "
                             f"{other.rows}x{other.cols}")
        self.algebra.require_compatible(other.algebra)
        unit = self.algebra.unit  # a constant factor only scales
        right_rows = {}
        for (k, j), right in other.nonzero.items():
            d = right.terms.get(unit) if len(right.terms) == 1 else None
            right_rows.setdefault(k, []).append((j, right, d))
        out = {}
        # the left entries are row-major, so each sum runs over ascending k
        for (i, k), left in self.nonzero.items():
            c = left.terms.get(unit) if len(left.terms) == 1 else None
            for j, right, d in right_rows.get(k, ()):
                product = (right.scale(c) if c is not None else left.scale(d) if d is not None
                           else left * right)
                prev = out.get((i, j))
                out[i, j] = product if prev is None else prev + product
        return OperatorMatrix.from_nonzero(self.algebra, self.rows, other.cols, out)

    def scale(self, c) -> "OperatorMatrix":
        c = Scalar.of(c)
        return self._map(lambda e: e.scale(c))

    def transpose(self) -> "OperatorMatrix":
        return OperatorMatrix.from_nonzero(
            self.algebra, self.cols, self.rows, {(j, i): e for (i, j), e in self.nonzero.items()}
        )

    def conj(self) -> "OperatorMatrix":
        """Entrywise adjoint, no transposition."""
        return self._map(OperatorPolynomial.adjoint)

    def adjoint(self) -> "OperatorMatrix":
        return OperatorMatrix.from_nonzero(self.algebra, self.cols, self.rows, {
            (j, i): e.adjoint() for (i, j), e in self.nonzero.items()})

    # -- predicates -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.nonzero

    def _check_same_shape(self, other: "OperatorMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} vs "
                             f"{other.rows}x{other.cols}")
        self.algebra.require_compatible(other.algebra)

    def __repr__(self):
        entries = ", ".join(f"({i},{j}): {render(e)}" for (i, j), e in self.nonzero.items())
        return f"<OperatorMatrix {self.rows}x{self.cols} {{{entries}}}>"


def block_diag(top: OperatorMatrix, bottom: OperatorMatrix) -> OperatorMatrix:
    """diag(top, bottom): ``bottom``'s entries shifted past ``top``'s rows and columns."""
    nonzero = dict(top.nonzero)
    nonzero.update(((i + top.rows, j + top.cols), e) for (i, j), e in bottom.nonzero.items())
    return OperatorMatrix.from_nonzero(top.algebra, top.rows + bottom.rows,
                                       top.cols + bottom.cols, nonzero)


def doubled_adjoint(v: OperatorMatrix) -> OperatorMatrix:
    """v' for a doubled column v = (u, u'): the row of v's entries with its
    halves swapped, since u'' = u bit for bit (conjugation only flips signs)."""
    return OperatorMatrix.from_nonzero(v.algebra, 1, v.rows, {
        (0, (i + v.rows // 2) % v.rows): p for (i, _), p in v.nonzero.items()})


def commutator_table(left: dict, right: dict) -> dict:
    """The nonzero [l, r] over the entries of ``left`` and ``right``, keyed by
    (left key, right key) in the order of ``left`` then ``right``.  A term
    pair contracts only where one side annihilates a mode the other's
    creators reach, so a pair whose ``support`` masks share no such mode is
    skipped before any call; a constant reaches and annihilates none."""
    left = [(j, l, *l.support()) for j, l in left.items()]
    if not any(ann or reach for _, _, ann, reach in left):
        return {}  # every left entry is constant, or commutes with everything
    right = [(k, r, *r.support()) for k, r in right.items()]
    out = {}
    for j, l, ann, reach in left:
        for k, r, rann, rreach in right:
            if ann & rreach or rann & reach:
                c = l.commutator(r)
                if not c.is_zero:
                    out[j, k] = c
    return out


def outer_commutator(u: OperatorMatrix, v: OperatorMatrix) -> OperatorMatrix:
    """Matrix with entry (j, k) = [u_j, v_k']; both arguments column vectors."""
    return row_commutator(u, v.conj())


def row_commutator(u: OperatorMatrix, w: OperatorMatrix) -> OperatorMatrix:
    """Matrix with entry (j, k) = [u_j, w_k]; both arguments column vectors."""
    _require_column(u, w)
    _require_column(w, u)
    table = commutator_table(u.nonzero, w.nonzero)
    return OperatorMatrix.from_nonzero(
        u.algebra, u.rows, w.rows, {(j, k): c for ((j, _), (k, _)), c in table.items()}
    )


def scalar_vec_commutator(s: OperatorPolynomial, v: OperatorMatrix) -> OperatorMatrix:
    """Column vector with entry j = [s, v_j]."""
    _require_column(v, s)
    table = commutator_table({0: s}, v.nonzero)
    return OperatorMatrix.from_nonzero(v.algebra, v.rows, 1, {k: c for (_, k), c in table.items()})


def matrix_vector_commutators(m: OperatorMatrix, w: OperatorMatrix, dagger: bool = False):
    """All commutators of matrix entries against vector components.

    Returns the named residual list [((i, j, k), poly), ...] with
    poly = [m_ij, w_k] (or [m_ij, w_k'] when ``dagger``), keeping only the
    nonzero entries.  This is how the matrix-against-vector commutation
    assertions of the check engines are evaluated.
    """
    _require_column(w, m)
    table = commutator_table(m.nonzero, (w.conj() if dagger else w).nonzero)
    return [((i + 1, j + 1, k + 1), c) for ((i, j), (k, _)), c in table.items()]


def _require_column(v: OperatorMatrix, other):
    """``v`` is a column vector over the algebra of ``other``."""
    if v.cols != 1:
        raise ValueError("expected a column vector")
    v.algebra.require_compatible(other.algebra)
