"""Normal-ordered polynomial algebra over bosonic mode operators.

The algebra is generated by ``n`` annihilation operators ``a_1..a_n`` and
their adjoints, subject to ``[a_j, a_k'] = theta_jk`` while annihilators
(and creators) commute among themselves.  Every polynomial is kept in
normal-ordered canonical form: creation factors to the left of
annihilation factors, each block described by a multidegree.

A :class:`Monomial` is the pair ``(creation, annihilation)`` as a ``tuple``
subclass, so hashing and equality run in C.  A word's mode masks and whether
it is a generator are worked out once per distinct word, in the intern table
of the :class:`Algebra` (``Algebra.word``), which lives as long as the
algebra, i.e. the model; nothing is kept at module level.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from math import comb, factorial, gcd, inf
from operator import add, itemgetter, neg

from .scalars import (
    DEFAULT_TOL,
    ONE,
    ZERO,
    Scalar,
    grid,
    grid_equal,
    grid_inverse,
    grid_is_hermitian,
    grid_is_identity,
    identity_grid,
    largest,
)


class CommutationMatrix:
    """The commutation data ``[a_j, a_k'] = theta_jk`` for an n-mode algebra.

    theta is an immutable grid, so its shape is worked out once here and read
    by every product: the nonzero ``(l, theta_jl, theta_jl == 1)`` of each
    row j, the nonzero ``(j, theta_jl, theta_jl == 1)`` of each column l, and
    for each column l the bitmask of the rows j with theta_jl != 0.
    """

    def __init__(self, theta):
        self.theta = grid(theta)
        n = len(self.theta)
        if any(len(row) != n for row in self.theta):
            raise ValueError("theta must be square")
        self._inverse = None
        exact = {t.den is not None for row in self.theta for t in row}
        self.exact = False not in exact
        rows, cols = [[] for _ in range(n)], [[] for _ in range(n)]
        for j, row in enumerate(self.theta):
            for l, t in enumerate(row):
                if t.re_num or t.im_num:
                    unit = t.re_num == 1 and not t.im_num and t.den in (1, None)  # t == 1
                    rows[j].append((l, t, unit))
                    cols[l].append((j, t, unit))
        self.row_entries, self.col_entries = tuple(map(tuple, rows)), tuple(map(tuple, cols))
        self.col_reach = tuple(sum(1 << j for j, _, _ in col) for col in self.col_entries)
        # the identity's fields, all exact or all binary64: its own inverse
        self._unit = len(exact) == 1 and all(
            len(row) == 1 and row[0][0] == j and row[0][2] for j, row in enumerate(rows))
        self._is_identity = self._unit or grid_is_identity(self.theta)

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
        return all(j == l for j, row in enumerate(self.row_entries) for l, _, _ in row)

    def reach(self, creates: int) -> int:
        """Bitmask of the modes j with theta_jl != 0 for some mode l in the
        bitmask ``creates``: the annihilators that contract with its creators."""
        out = 0
        while creates:
            low = creates & -creates
            out |= self.col_reach[low.bit_length() - 1]
            creates ^= low
        return out

    def inverse(self):
        if self._inverse is None:
            self._inverse = self.theta if self._unit else grid_inverse(self.theta)
        return self._inverse


class Algebra:
    """Shared context for polynomials: mode count, theta and tolerance."""

    def __init__(self, modes: int, theta=None, tol: float = DEFAULT_TOL):
        if modes < 1:
            raise ValueError("mode count must be positive")
        if not 0 < tol < inf:  # also refuses nan
            raise ValueError(f"tolerance must be positive and finite, not {tol!r}")
        self.modes = modes
        if theta is None:
            theta = CommutationMatrix.identity(modes)
        elif not isinstance(theta, CommutationMatrix):
            theta = CommutationMatrix(theta)
        if theta.n != modes:
            raise ValueError("theta size does not match mode count")
        self.theta = theta
        self.tol = tol
        self.unit = Monomial.unit(modes)
        self._zero = OperatorPolynomial(self, {})
        self._words = {}
        self._generators = {}  # (j, creates): a_j' or a_j

    @cached_property
    def hermitian(self) -> bool:
        """Whether theta is Hermitian at this algebra's tolerance, decided on the
        first read; a unit theta needs no scan."""
        return self.theta._unit or grid_is_hermitian(self.theta.theta, self.tol)

    def word(self, m: "Monomial"):
        """(annihilated modes, created modes, generator) of the word m: two
        bitmasks, and (j, creates) when m is a_j' (creates) or a_j, 0-based j.
        Interned on first use; hot loops read ``_words.get(m) or word(m)``."""
        info = self._words.get(m)
        if info is None:
            cre, ann = m
            a = sum(1 << i for i, k in enumerate(ann) if k)
            c = sum(1 << i for i, h in enumerate(cre) if h)
            gen = ((a | c).bit_length() - 1, bool(c)) if sum(cre) + sum(ann) == 1 else None
            info = self._words[m] = (a, c, gen)
        return info

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
        return OperatorPolynomial(self, {self.unit: c})

    def annihilator(self, j: int) -> "OperatorPolynomial":
        return self._generator(j, False)

    def creator(self, j: int) -> "OperatorPolynomial":
        return self._generator(j, True)

    def _generator(self, j: int, creates: bool) -> "OperatorPolynomial":
        """a_j' or a_j, built once per algebra: polynomials are immutable."""
        gen = self._generators.get((j, creates))
        if gen is None:
            self._check_mode(j)
            block, zero = tuple(int(i == j - 1) for i in range(self.modes)), (0,) * self.modes
            word = Monomial(block, zero) if creates else Monomial(zero, block)
            gen = self._generators[j, creates] = _poly(self, {word: ONE})
        return gen

    def monomial(self, creation, annihilation, coeff=ONE) -> "OperatorPolynomial":
        m = Monomial(tuple(creation), tuple(annihilation))
        if len(m.creation) != self.modes or len(m.annihilation) != self.modes:
            raise ValueError("multidegree length does not match mode count")
        return OperatorPolynomial(self, {m: Scalar.of(coeff)})  # which drops a zero


class Monomial(tuple):
    """A normal-ordered word: creation multidegree, then annihilation multidegree."""

    __slots__ = ()

    def __new__(cls, creation: tuple, annihilation: tuple):
        return tuple.__new__(cls, (creation, annihilation))

    def __getnewargs__(self):  # copy and pickle call __new__ with these
        return tuple(self)

    creation = property(itemgetter(0))
    annihilation = property(itemgetter(1))

    @staticmethod
    def unit(n: int) -> "Monomial":
        return Monomial((0,) * n, (0,) * n)

    @property
    def degree(self) -> int:
        return sum(self[0]) + sum(self[1])

    @property
    def is_unit(self) -> bool:
        return self.degree == 0

    def sort_key(self):
        return self.degree, tuple(-x for x in self[0]), tuple(-x for x in self[1])

    def __repr__(self):
        return f"Monomial(creation={self[0]!r}, annihilation={self[1]!r})"


_word = partial(tuple.__new__, Monomial)  # _word((cre, ann)), with no Python-level call


class OperatorPolynomial:
    """Finite linear combination of normal-ordered monomials.

    Values are immutable; all arithmetic returns new polynomials with zero
    coefficients pruned (exactly in exact mode, by ``Scalar.is_zero`` at the
    workspace tolerance in floating mode).
    """

    __slots__ = ("algebra", "terms", "_support")

    def __init__(self, algebra: Algebra, terms: dict):
        self.algebra, tol = algebra, algebra.tol
        kept = self.terms = {}
        for m, c in terms.items():
            if (c.re_num or c.im_num) if c.den is not None else not c.is_zero(tol):
                kept[m] = c

    # -- basic queries --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def max_degree(self) -> int:
        return max((sum(cre) + sum(ann) for cre, ann in self.terms), default=0)

    @property
    def is_constant(self) -> bool:
        return all(m.is_unit for m in self.terms)

    def constant_value(self) -> Scalar:
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return self.terms.get(self.algebra.unit, ZERO)

    def coeff_norm(self) -> float:
        return largest(c.magnitude() for c in self.terms.values())

    def support(self):
        """(annihilated, reached): bitmasks of the modes the terms annihilate and
        of those ``CommutationMatrix.reach`` of the modes they create; cached."""
        try:
            return self._support
        except AttributeError:
            alg, ann, cre = self.algebra, 0, 0
            for m in self.terms:
                a, c, _ = alg.word(m)
                ann, cre = ann | a, cre | c
            self._support = ann, alg.theta.reach(cre)
            return self._support

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        if type(other) is not OperatorPolynomial:
            if isinstance(other, (int, Fraction, float, complex, Scalar)):
                other = self.algebra.scalar(other)
            elif not isinstance(other, OperatorPolynomial):
                return NotImplemented
        return self._plus(other.algebra, other.terms.items())

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not OperatorPolynomial:
            return self + (-other if isinstance(other, OperatorPolynomial) else -Scalar.of(other))
        return self._plus(other.algebra, zip(other.terms, map(neg, other.terms.values())))

    def _plus(self, other_alg: Algebra, terms) -> "OperatorPolynomial":
        """self plus the (word, coefficient) pairs ``terms`` over ``other_alg``."""
        alg = self.algebra
        if other_alg is not alg:
            alg.require_compatible(other_alg)
        out, tol = dict(self.terms), alg.tol
        for m, c in terms:
            prev = out.get(m)
            c = c if prev is None else prev + c
            if prev is None or ((c.re_num or c.im_num) if c.den is not None
                                else not c.is_zero(tol)):
                out[m] = c
            else:
                del out[m]  # only a sum can vanish, where both sides share tol
        # a term of another algebra may lie below this one's tolerance
        return (_poly if other_alg is alg else OperatorPolynomial)(alg, out)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _poly(self.algebra, {m: -c for m, c in self.terms.items()})

    def scale(self, c) -> "OperatorPolynomial":
        c = Scalar.of(c)
        return OperatorPolynomial(self.algebra, {m: c * x for m, x in self.terms.items()})

    def __mul__(self, other):
        if type(other) is not OperatorPolynomial:
            if isinstance(other, (int, Fraction, float, complex, Scalar)):
                return self.scale(other)
            if not isinstance(other, OperatorPolynomial):
                return NotImplemented
        alg = self.algebra
        if other.algebra is not alg:
            alg.require_compatible(other.algebra)
        words, reach = alg._words, alg.theta.reach
        terms2 = [(m2, c2, reach((words.get(m2) or alg.word(m2))[1]))
                  for m2, c2 in other.terms.items()]
        out = {}
        for m1, c1 in self.terms.items():
            ann1 = (words.get(m1) or alg.word(m1))[0]
            cre1, k1 = m1
            for m2, c2, reach2 in terms2:
                c = c1 * c2
                if ann1 & reach2:
                    _accumulate_product(alg, m1, c, m2, out)
                    continue
                # no contraction: m1 * m2 is one word, as the first Wick term
                if c.den is None and c.is_zero(0.0):
                    continue
                mono = _word((tuple(map(add, cre1, m2[0])), tuple(map(add, k1, m2[1]))))
                prev = out.get(mono)
                out[mono] = c if prev is None else prev + c
        return OperatorPolynomial(alg, out)

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
        return _poly(self.algebra, {_word((ann, cre)): c.conjugate()
                                    for (cre, ann), c in self.terms.items()})

    def commutator(self, other: "OperatorPolynomial") -> "OperatorPolynomial":
        """[self, other].  Only the terms of m1*m2 and m2*m1 with at least one
        contraction are formed: the uncontracted terms are equal in both
        orders and cancel.  m1*m2 can contract only where m1 annihilates a
        mode j and m2 creates a mode l with theta_jl != 0, read from
        ``CommutationMatrix.reach``, so a pair, or one order of it, that
        cannot is skipped before any scalar work.  Against a generator a_j or
        a_j' each term's contractions are formed directly by
        ``_generator_commutator``; two generators make one product here."""
        alg = self.algebra
        if other.algebra is not alg:
            alg.require_compatible(other.algebra)
        gen_self, gen_other = _generator(self), _generator(other)
        if gen_self is None and gen_other is not None:
            return _generator_commutator(self, *gen_other, left=True)
        if gen_other is None and gen_self is not None:
            return _generator_commutator(other, *gen_self, left=False)
        words, reach = alg._words, alg.theta.reach
        terms2 = []
        for m2, c2 in other.terms.items():
            ann2, cre2, _ = words.get(m2) or alg.word(m2)
            terms2.append((m2, c2, ann2, reach(cre2)))
        out = {}
        for m1, c1 in self.terms.items():
            ann1, cre1, _ = words.get(m1) or alg.word(m1)
            if not (ann1 or cre1):
                continue  # a constant term commutes with everything
            reach1 = reach(cre1)
            for m2, c2, ann2, reach2 in terms2:
                forward, backward = ann1 & reach2, ann2 & reach1
                if not (forward or backward):
                    continue
                c = c1 * c2
                if forward:
                    _accumulate_product(alg, m1, c, m2, out, contracted=True)
                if backward:
                    _accumulate_product(alg, m2, -c, m1, out, contracted=True)
        return OperatorPolynomial(alg, out)

    # -- comparison -----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, float, complex, Scalar)):
            other = self.algebra.scalar(other)
        if not isinstance(other, OperatorPolynomial):
            return NotImplemented
        return (self - other).is_zero

    __hash__ = None

    def __repr__(self):
        return f"<OperatorPolynomial {render(self)}>"


def _poly(alg: Algebra, terms: dict) -> OperatorPolynomial:
    """The polynomial of ``terms``, which hold no coefficient to prune."""
    p = object.__new__(OperatorPolynomial)
    p.algebra, p.terms = alg, terms
    return p


# -- normal ordering ----------------------------------------------------------

def _generator(p: OperatorPolynomial):
    """(j, creates) of ``Algebra.word`` when p is exactly a_j' or a_j, with
    the exact coefficient 1."""
    if len(p.terms) == 1:
        (m, c), = p.terms.items()
        if c.den == 1 and c.re_num == 1 and not c.im_num:
            return p.algebra.word(m)[2]


def _generator_commutator(p: OperatorPolynomial, j: int, creates: bool, left: bool):
    """[p, g] (``left``) or [g, p] for g = a_j' (``creates``) or a_j:
    [p, a_j'] = sum_i theta_ij dp/da_i and [p, a_j] = -sum_i theta_ji dp/da_i'.
    Each term takes the scalar steps of ``_accumulate_product`` (theta is
    finite, so its ``theta_jl**1`` is theta_jl), and the theta entries are
    walked last first, the order in which it lists single contractions, so
    float bits and term order match."""
    alg = p.algebra
    entries = (alg.theta.col_entries if creates else alg.theta.row_entries)[j][::-1]
    negate = creates != left
    out = {}
    for m, c in p.terms.items():
        cre, ann = m
        block = ann if creates else cre
        signed = -c if negate else c
        for i, theta_i, unit in entries:
            w = block[i]
            if not w:
                continue
            cut = block[:i] + (w - 1,) + block[i + 1:]
            mono = _word((cre, cut) if creates else (cut, ann))
            # the accumulator's steps; a float term of unit weight is still
            # multiplied by 1, as the general product multiplies it by the
            # generator's 1, which makes the imaginary part of (inf+0i) nan
            term = signed * (theta_i * w) if not unit else (
                signed if w == 1 and signed.den is not None else signed * Scalar(w))
            prev = out.get(mono)
            out[mono] = term if prev is None else prev + term
    return OperatorPolynomial(alg, out) if out else alg.zero()


def _accumulate_product(
    alg: Algebra, m1: Monomial, coeff: Scalar, m2: Monomial, out, contracted: bool = False
):
    """Add the normal-ordered expansion of coeff * m1 * m2 into ``out``.

    Wick's theorem, for every theta: each way of contracting annihilators of
    m1 with creators of m2 leaves one normal-ordered word.  The pairs (j, l)
    with theta_jl != 0 are taken in row-major order, and contracting t of the
    K still free mode-j annihilators with t of the H still free mode-l
    creators weighs comb(K, t) * comb(H, t) * t! * theta_jl**t.  The weight
    stays a Python int, and theta_jl**t joins it only where theta_jl is not
    exactly 1, so each output term costs one Scalar multiply.  With
    ``contracted`` the term with no contraction is left out.
    """
    if coeff.is_zero(0.0):
        return
    k1, h2 = m1[1], m2[0]
    # combos: (int weight, theta factor or None, free k1, free h2); the first
    # one has no contraction
    combos = [(1, None, k1, h2)]
    for j, rows in enumerate(alg.theta.row_entries):
        if not k1[j]:
            continue
        for l, theta_jl, unit in rows:
            if not h2[l]:
                continue
            nxt = []
            for w, f, ks, hs in combos:
                nxt.append((w, f, ks, hs))
                K, H = ks[j], hs[l]
                for t in range(1, min(K, H) + 1):
                    ft = f if unit else (theta_jl**t if f is None else f * theta_jl**t)
                    nxt.append((w * comb(K, t) * comb(H, t) * factorial(t), ft,
                                ks[:j] + (K - t,) + ks[j + 1:], hs[:l] + (H - t,) + hs[l + 1:]))
            combos = nxt
    for w, f, ks, hs in combos[1:] if contracted else combos:
        if f is not None:
            term = coeff * (f * w)
        elif w != 1:
            term = coeff * Scalar(w)
        else:
            term = coeff
        mono = _word((tuple(map(add, m1[0], hs)), tuple(map(add, ks, m2[1]))))
        prev = out.get(mono)
        out[mono] = term if prev is None else prev + term


def normal_order(algebra: Algebra, word, coefficient=1) -> OperatorPolynomial:
    """Normal-order ``coefficient`` times a word of generators, a sequence of
    ``(mode, dagger)`` pairs with 1-based mode indices, one product at a time."""
    out = algebra.scalar(coefficient)
    for mode, dag in word:
        out = out * (algebra.creator(mode) if dag else algebra.annihilator(mode))
    return out


# -- formal derivatives -------------------------------------------------------

def wirtinger_gradient(phi: OperatorPolynomial):
    """Gradient of ``phi`` with respect to the doubled generator vector.

    Entries 1..n differentiate with respect to the creation generators,
    entries n+1..2n with respect to the annihilation generators, both
    defined termwise on the normal-ordered form.
    """
    alg = phi.algebra
    grad = []
    for creates in (True, False):
        for j in range(alg.modes):
            terms = {}
            for m, c in phi.terms.items():
                block = m.creation if creates else m.annihilation
                h = block[j]
                if h == 0:
                    continue
                cut = block[:j] + (h - 1,) + block[j + 1:]
                mono = Monomial(cut, m.annihilation) if creates else Monomial(m.creation, cut)
                terms[mono] = terms.get(mono, ZERO) + c * Scalar(h)
            grad.append(OperatorPolynomial(alg, terms))
    return grad


# -- canonical text rendering -------------------------------------------------

def format_scalar(c: Scalar, parsable: bool = False) -> str:
    """Coefficient text: golden ``(re+im i)`` with both parts printed, or with
    ``parsable`` the model-format ``(re)`` / ``(re+im*i)``."""
    re, im, den = c.re_num, c.im_num, c.den
    if parsable and im == 0:
        return f"({_format_part(re, den)})"
    # a NaN is not >= 0 and prints as "-nan"
    sign, im = ("+", im) if im >= 0 else ("-", -im)
    return f"({_format_part(re, den)}{sign}{_format_part(im, den)}{'*i' if parsable else 'i'})"


def _format_part(num, den) -> str:
    """A binary64 part's ``repr``; ``str(Fraction(num, den))``, unbuilt, of an exact one."""
    if den is None:
        return repr(num)
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


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
