"""Normal-ordered polynomial algebra over bosonic mode operators.

The algebra is generated by ``n`` annihilation operators ``a_1..a_n`` and
their adjoints, subject to ``[a_j, a_k'] = theta_jk`` while annihilators
(and creators) commute among themselves.  Every polynomial is kept in
normal-ordered canonical form: creation factors to the left of
annihilation factors, each block described by a multidegree.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import comb, factorial

from .scalars import (
    DEFAULT_TOL,
    ONE,
    ZERO,
    Scalar,
    block_diag,
    grid,
    grid_conj,
    grid_equal,
    grid_inverse,
    grid_is_identity,
    grid_neg,
    identity_grid,
)


class CommutationMatrix:
    """The commutation data ``[a_j, a_k'] = theta_jk`` for an n-mode algebra.

    theta is an immutable grid, so its shape (identity, diagonal) is worked
    out once here and read by every product.
    """

    def __init__(self, theta):
        self.theta = grid(theta)
        n = len(self.theta)
        if any(len(row) != n for row in self.theta):
            raise ValueError("theta must be square")
        self._inverse = None
        self._is_identity = grid_is_identity(self.theta)
        self._is_diagonal = all(
            self.theta[j][k].is_zero(0.0) for j in range(n) for k in range(n) if j != k
        )

    @classmethod
    def identity(cls, n: int) -> "CommutationMatrix":
        return cls(identity_grid(n))

    @property
    def n(self) -> int:
        return len(self.theta)

    def entry(self, j: int, k: int) -> Scalar:
        return self.theta[j][k]

    @property
    def is_identity(self) -> bool:
        return self._is_identity

    @property
    def is_diagonal(self) -> bool:
        return self._is_diagonal

    @property
    def invertible(self) -> bool:
        try:
            self.inverse()
            return True
        except ValueError:
            return False

    def inverse(self):
        if self._inverse is None:
            self._inverse = grid_inverse(self.theta)
        return self._inverse

    def graded(self):
        """The block matrix diag(theta, -theta*), the true value of [abar, abar']."""
        return block_diag(self.theta, grid_neg(grid_conj(self.theta)))

    def doubled_printed(self):
        """The block matrix diag(theta, theta*)."""
        return block_diag(self.theta, grid_conj(self.theta))


class Algebra:
    """Shared context for polynomials: mode count, theta and tolerance."""

    def __init__(self, modes: int, theta=None, tol: float = DEFAULT_TOL):
        if modes < 1:
            raise ValueError("mode count must be positive")
        if tol <= 0:
            raise ValueError("tolerance must be positive")
        self.modes = modes
        if theta is None:
            theta = CommutationMatrix.identity(modes)
        elif not isinstance(theta, CommutationMatrix):
            theta = CommutationMatrix(theta)
        if theta.n != modes:
            raise ValueError("theta size does not match mode count")
        self.theta = theta
        self.tol = tol
        self._zero = OperatorPolynomial(self, {})

    def compatible(self, other: "Algebra") -> bool:
        """Same mode count and theta; polynomials of one model share one algebra."""
        if self is other:
            return True
        return self.modes == other.modes and grid_equal(
            self.theta.theta, other.theta.theta, self.tol
        )

    def require_compatible(self, other: "Algebra"):
        if not self.compatible(other):
            raise ValueError("operands belong to different algebras")

    def _check_mode(self, j: int):
        if not 1 <= j <= self.modes:
            raise ValueError(f"mode index {j} out of range 1..{self.modes}")

    # -- constructors ---------------------------------------------------------

    def zero(self) -> "OperatorPolynomial":
        return self._zero  # one shared instance: polynomials are immutable

    def one(self) -> "OperatorPolynomial":
        return self.scalar(ONE)

    def scalar(self, c) -> "OperatorPolynomial":
        c = Scalar.of(c)
        if c.is_zero(0.0):
            return self.zero()
        return OperatorPolynomial(self, {Monomial.unit(self.modes): c})

    def annihilator(self, j: int) -> "OperatorPolynomial":
        self._check_mode(j)
        ann = tuple(1 if i == j - 1 else 0 for i in range(self.modes))
        zero = (0,) * self.modes
        return OperatorPolynomial(self, {Monomial(zero, ann): ONE})

    def creator(self, j: int) -> "OperatorPolynomial":
        self._check_mode(j)
        cre = tuple(1 if i == j - 1 else 0 for i in range(self.modes))
        zero = (0,) * self.modes
        return OperatorPolynomial(self, {Monomial(cre, zero): ONE})

    def monomial(self, creation, annihilation, coeff=ONE) -> "OperatorPolynomial":
        m = Monomial(tuple(creation), tuple(annihilation))
        if len(m.creation) != self.modes or len(m.annihilation) != self.modes:
            raise ValueError("multidegree length does not match mode count")
        c = Scalar.of(coeff)
        if c.is_zero(0.0):
            return self.zero()
        return OperatorPolynomial(self, {m: c})


@dataclass(frozen=True)
class Monomial:
    """A normal-ordered word: creation multidegree, then annihilation multidegree."""

    creation: tuple
    annihilation: tuple

    @staticmethod
    def unit(n: int) -> "Monomial":
        return Monomial((0,) * n, (0,) * n)

    @property
    def degree(self) -> int:
        return sum(self.creation) + sum(self.annihilation)

    @property
    def is_unit(self) -> bool:
        return self.degree == 0

    def word(self):
        """Expand to a factor sequence of (mode, dagger) pairs, 0-based modes."""
        out = []
        for i, h in enumerate(self.creation):
            out.extend([(i, True)] * h)
        for i, k in enumerate(self.annihilation):
            out.extend([(i, False)] * k)
        return tuple(out)

    @cached_property
    def mode_masks(self):
        """Bitmasks of the modes this word annihilates and creates."""
        ann = cre = 0
        for i, (h, k) in enumerate(zip(self.creation, self.annihilation)):
            if k:
                ann |= 1 << i
            if h:
                cre |= 1 << i
        return ann, cre

    @cached_property
    def generator(self):
        """(j, creates) when the word is a_j' (creates) or a_j, 0-based j."""
        if self.degree == 1:
            ann, cre = self.mode_masks
            return (ann | cre).bit_length() - 1, bool(cre)

    def sort_key(self):
        return (
            self.degree,
            tuple(-x for x in self.creation),
            tuple(-x for x in self.annihilation),
        )


class OperatorPolynomial:
    """Finite linear combination of normal-ordered monomials.

    Values are immutable; all arithmetic returns new polynomials with zero
    coefficients pruned (exactly in exact mode, below the workspace
    tolerance in floating mode).
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: Algebra, terms: dict):
        self.algebra = algebra
        pruned = {}
        for mono, coeff in terms.items():
            if coeff.den is None:
                if coeff.magnitude() <= algebra.tol:
                    continue
            elif not (coeff.re_num or coeff.im_num):
                continue
            pruned[mono] = coeff
        self.terms = pruned

    # -- basic queries --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def max_degree(self) -> int:
        return max((m.degree for m in self.terms), default=0)

    @property
    def is_constant(self) -> bool:
        return all(m.is_unit for m in self.terms)

    def constant_value(self) -> Scalar:
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return self.terms.get(Monomial.unit(self.algebra.modes), ZERO)

    def coeff_norm(self) -> float:
        return max((c.magnitude() for c in self.terms.values()), default=0.0)

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, float, complex, Scalar)):
            other = self.algebra.scalar(other)
        if not isinstance(other, OperatorPolynomial):
            return NotImplemented
        self.algebra.require_compatible(other.algebra)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, ZERO) + c
        return OperatorPolynomial(self.algebra, out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, OperatorPolynomial) else -Scalar.of(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return OperatorPolynomial(self.algebra, {m: -c for m, c in self.terms.items()})

    def scale(self, c) -> "OperatorPolynomial":
        c = Scalar.of(c)
        return OperatorPolynomial(self.algebra, {m: c * x for m, x in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, float, complex, Scalar)):
            return self.scale(other)
        if not isinstance(other, OperatorPolynomial):
            return NotImplemented
        self.algebra.require_compatible(other.algebra)
        out = defaultdict(lambda: ZERO)
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                _accumulate_product(self.algebra, m1, c1 * c2, m2, out)
        return OperatorPolynomial(self.algebra, dict(out))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, float, complex, Scalar)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        out = self.algebra.one()
        for _ in range(k):
            out = out * self
        return out

    def adjoint(self) -> "OperatorPolynomial":
        # The adjoint of a normal-ordered monomial is again normal-ordered:
        # the blocks swap and each block reverses internally, which is a no-op.
        return OperatorPolynomial(
            self.algebra,
            {
                Monomial(m.annihilation, m.creation): c.conjugate()
                for m, c in self.terms.items()
            },
        )

    def commutator(self, other: "OperatorPolynomial") -> "OperatorPolynomial":
        """[self, other].  With diagonal theta, only the terms of m1*m2 and
        m2*m1 with at least one contraction are formed: the uncontracted terms
        are equal in both orders and cancel.  m1*m2 can contract only where
        m1 annihilates a mode that m2 creates, so a pair, or one order of
        it, that cannot is skipped before any scalar work.  Against a
        generator a_j or a_j' each term has one contraction, formed directly
        by ``_generator_commutator``; two generators make one product here."""
        alg = self.algebra
        if not alg.theta.is_diagonal:
            return self * other - other * self
        alg.require_compatible(other.algebra)
        gen_self, gen_other = _generator(self), _generator(other)
        if gen_self is None and gen_other is not None:
            return _generator_commutator(self, *gen_other, left=True)
        if gen_other is None and gen_self is not None:
            return _generator_commutator(other, *gen_self, left=False)
        out = defaultdict(lambda: ZERO)
        for m1, c1 in self.terms.items():
            ann1, cre1 = m1.mode_masks
            if not (ann1 or cre1):
                continue  # a constant term commutes with everything
            for m2, c2 in other.terms.items():
                ann2, cre2 = m2.mode_masks
                forward, backward = ann1 & cre2, ann2 & cre1
                if not (forward or backward):
                    continue
                c = c1 * c2
                if forward:
                    _accumulate_product(alg, m1, c, m2, out, contracted=True)
                if backward:
                    _accumulate_product(alg, m2, -c, m1, out, contracted=True)
        return OperatorPolynomial(alg, dict(out))

    # -- comparison -----------------------------------------------------------

    def equals(self, other: "OperatorPolynomial") -> bool:
        return (self - other).is_zero

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, float, complex, Scalar)):
            other = self.algebra.scalar(other)
        if not isinstance(other, OperatorPolynomial):
            return NotImplemented
        return self.equals(other)

    __hash__ = None

    def __repr__(self):
        return f"<OperatorPolynomial {render(self)}>"


def commutator(p: OperatorPolynomial, q: OperatorPolynomial) -> OperatorPolynomial:
    return p.commutator(q)


def adjoint(p: OperatorPolynomial) -> OperatorPolynomial:
    return p.adjoint()


# -- normal ordering ----------------------------------------------------------

def _generator(p: OperatorPolynomial):
    """``Monomial.generator`` of p's one term when p is exactly a_j' or a_j,
    with the exact coefficient 1."""
    if len(p.terms) == 1:
        (m, c), = p.terms.items()
        return m.generator if c.den == 1 and c.re_num == 1 and not c.im_num else None


def _generator_commutator(p: OperatorPolynomial, j: int, creates: bool, left: bool):
    """[p, g] (``left``) or [g, p] for g = a_j' (``creates``) or a_j, diagonal
    theta: [p, a_j'] = theta_jj dp/da_j and [p, a_j] = -theta_jj dp/da_j'.
    Each term takes the scalar steps of ``_accumulate_product``, so float
    bits match."""
    alg = p.algebra
    theta_j = alg.theta.entry(j, j)
    if theta_j.is_zero(0.0):
        return alg.zero()
    factor = None if alg.theta.is_identity or theta_j == ONE else theta_j**1
    negate = creates != left
    out = {}
    for m, c in p.terms.items():
        cre, ann = m.creation, m.annihilation
        block = ann if creates else cre
        w = block[j]
        if not w:
            continue
        block = block[:j] + (w - 1,) + block[j + 1:]
        mono = Monomial(cre, block) if creates else Monomial(block, ann)
        c = -c if negate else c
        # ZERO + ... and theta_j**1 are the accumulator's steps; the ZERO start
        # settles float signed zeros
        out[mono] = ZERO + (c * Scalar(w) if factor is None else c * (factor * w))
    return OperatorPolynomial(alg, out) if out else alg.zero()


def _accumulate_product(
    alg: Algebra, m1: Monomial, coeff: Scalar, m2: Monomial, out, contracted: bool = False
):
    """Add the normal-ordered expansion of coeff * m1 * m2 into ``out``.

    With diagonal theta the modes decouple and the standard single-mode
    reordering formula applies per mode: contracting j of mode i's
    annihilators in m1 with j of its creators in m2 weighs
    comb(k1, j) * comb(h2, j) * j! * theta_ii**j.  The weight stays a Python
    int, and theta_ii**j joins it only where theta_ii is not exactly 1, so
    each output term costs one Scalar multiply.  With ``contracted`` the term
    with no contraction is left out.  Otherwise we fall back to the generic
    rewrite on the concatenated word.
    """
    if coeff.is_zero(0.0):
        return
    theta = alg.theta
    if not theta.is_diagonal:
        for mono, c in _rewrite_word(alg, m1.word() + m2.word()).items():
            out[mono] = out[mono] + coeff * c
        return
    unit_theta = theta.is_identity
    # combos: (int weight, theta factor or None, ((mode, j), ...) with j > 0)
    combos = [(1, None, ())]
    for i, (k1, h2) in enumerate(zip(m1.annihilation, m2.creation)):
        top = min(k1, h2)
        if top == 0:
            continue
        theta_i = theta.entry(i, i)
        if theta_i.is_zero(0.0):
            continue
        unit = unit_theta or theta_i == ONE
        nxt = []
        for w, f, js in combos:
            nxt.append((w, f, js))
            for j in range(1, top + 1):
                fj = f if unit else (theta_i**j if f is None else f * theta_i**j)
                nxt.append((w * comb(k1, j) * comb(h2, j) * factorial(j), fj, js + ((i, j),)))
        combos = nxt
    cre0 = [a + b for a, b in zip(m1.creation, m2.creation)]
    ann0 = [a + b for a, b in zip(m1.annihilation, m2.annihilation)]
    for w, f, js in combos:
        if contracted and not js:
            continue
        cre, ann = list(cre0), list(ann0)
        for i, j in js:
            cre[i] -= j
            ann[i] -= j
        if f is not None:
            term = coeff * (f * w)
        elif w != 1:
            term = coeff * Scalar(w)
        else:
            # ``out`` starts at ZERO, so adding coeff itself gives the bits
            # of coeff * ONE, signed zeros included
            term = coeff
        mono = Monomial(tuple(cre), tuple(ann))
        out[mono] = out[mono] + term


def _word_mismatch(word, strategy: str):
    rng = range(len(word) - 1)
    if strategy == "rightmost":
        rng = reversed(rng)
    for i in rng:
        if not word[i][1] and word[i + 1][1]:
            return i
    return None


def _rewrite_word(alg: Algebra, word, strategy: str = "leftmost"):
    """Fixpoint of the rewrite a_j a_k' -> a_k' a_j + theta_jk on one word."""
    n = alg.modes
    out = defaultdict(lambda: ZERO)
    stack = [(ONE, tuple(word))]
    while stack:
        coeff, w = stack.pop()
        i = _word_mismatch(w, strategy)
        if i is None:
            cre = [0] * n
            ann = [0] * n
            for mode, dag in w:
                if dag:
                    cre[mode] += 1
                else:
                    ann[mode] += 1
            mono = Monomial(tuple(cre), tuple(ann))
            out[mono] = out[mono] + coeff
            continue
        (j, _), (k, _) = w[i], w[i + 1]
        stack.append((coeff, w[:i] + (w[i + 1], w[i]) + w[i + 2:]))
        theta_jk = alg.theta.entry(j, k)
        if not theta_jk.is_zero(0.0):
            stack.append((coeff * theta_jk, w[:i] + w[i + 2:]))
    return dict(out)


def normal_order(
    algebra: Algebra,
    word,
    coefficient=1,
    strategy: str = "leftmost",
) -> OperatorPolynomial:
    """Normal-order a word of generators.

    ``word`` is a sequence of ``(mode, dagger)`` pairs with 1-based mode
    indices; ``coefficient`` is a scalar prefactor.  The result is
    independent of the rewrite ``strategy`` (confluence), which is exposed
    only so that tests can assert exactly that.
    """
    internal = []
    for mode, dag in word:
        algebra._check_mode(mode)
        internal.append((mode - 1, bool(dag)))
    coeff = Scalar.of(coefficient)
    terms = {
        m: coeff * c for m, c in _rewrite_word(algebra, internal, strategy).items()
    }
    return OperatorPolynomial(algebra, terms)


# -- formal derivatives -------------------------------------------------------

def wirtinger_gradient(phi: OperatorPolynomial):
    """Gradient of ``phi`` with respect to the doubled generator vector.

    Entries 1..n differentiate with respect to the creation generators,
    entries n+1..2n with respect to the annihilation generators, both
    defined termwise on the normal-ordered form.
    """
    alg = phi.algebra
    n = alg.modes
    grad = []
    for j in range(n):
        terms = {}
        for m, c in phi.terms.items():
            h = m.creation[j]
            if h == 0:
                continue
            cre = m.creation[:j] + (h - 1,) + m.creation[j + 1:]
            mono = Monomial(cre, m.annihilation)
            terms[mono] = terms.get(mono, ZERO) + c * Scalar(h)
        grad.append(OperatorPolynomial(alg, terms))
    for j in range(n):
        terms = {}
        for m, c in phi.terms.items():
            k = m.annihilation[j]
            if k == 0:
                continue
            ann = m.annihilation[:j] + (k - 1,) + m.annihilation[j + 1:]
            mono = Monomial(m.creation, ann)
            terms[mono] = terms.get(mono, ZERO) + c * Scalar(k)
        grad.append(OperatorPolynomial(alg, terms))
    return grad


# -- canonical text rendering -------------------------------------------------

def format_scalar(c: Scalar, parsable: bool = False) -> str:
    """Coefficient text: golden ``(re+im i)`` with both parts printed, or with
    ``parsable`` the model-format ``(re)`` / ``(re+im*i)``."""
    re_s = _format_component(c.re)
    if parsable and c.im == 0:
        return f"({re_s})"
    im_s = _format_component(c.im if c.im >= 0 else -c.im)
    sign = "+" if c.im >= 0 else "-"
    return f"({re_s}{sign}{im_s}{'*i' if parsable else 'i'})"


def _format_component(x) -> str:
    if isinstance(x, Fraction):
        return str(x)
    return repr(x)


def _format_monomial(m: Monomial) -> str:
    parts = []
    for i, h in enumerate(m.creation):
        if h:
            parts.append(f"a{i + 1}'" + (f"^{h}" if h > 1 else ""))
    for i, k in enumerate(m.annihilation):
        if k:
            parts.append(f"a{i + 1}" + (f"^{k}" if k > 1 else ""))
    return "*".join(parts)


def render(p: OperatorPolynomial, parsable: bool = False) -> str:
    """Canonical term-ordered rendering: the bit-exact golden-file format, or
    with ``parsable`` the model-format text that ``parse_expression`` reads."""
    if p.is_zero:
        return "0"
    chunks = []
    for m in sorted(p.terms, key=Monomial.sort_key):
        coeff = format_scalar(p.terms[m], parsable)
        mono = _format_monomial(m)
        chunks.append(f"{coeff}*{mono}" if mono else coeff)
    return " + ".join(chunks)
