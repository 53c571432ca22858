"""The polynomial kernel as it stood before monomials became interned tuples.

A frozen copy, kept as a reference the way ``rewrite_word`` is: the
frozen-dataclass ``Monomial``, the product (``__mul__`` through
``_accumulate_product``), ``commutator`` with its generator shortcut, and
``+``, ``-``, negation and ``adjoint``, each ending in the constructor's
pruning.  Every function takes and returns term dicts ``{RefMonomial:
Scalar}``; ``terms_of`` reads a package polynomial, and ``matmul`` and
``matadd`` take package matrices.  The package's kernel must give the same
terms, in the same order, with the same float bits.
"""

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from math import comb, factorial
from operator import add as _add

from qrealize.scalars import ZERO, Scalar


@dataclass(frozen=True)
class RefMonomial:
    """A normal-ordered word: creation multidegree, then annihilation multidegree."""

    creation: tuple
    annihilation: tuple

    @property
    def degree(self) -> int:
        return sum(self.creation) + sum(self.annihilation)

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


def component_reprs(p):
    """Each term of a package polynomial or a term dict, in order, with the
    repr of both coefficient components, so that -0.0 and 0.0 differ."""
    return [((m.creation, m.annihilation), repr(c.re), repr(c.im))
            for m, c in getattr(p, "terms", p).items()]


def terms_of(p):
    return {RefMonomial(m.creation, m.annihilation): c for m, c in p.terms.items()}


def prune(alg, terms):
    pruned = {}
    for mono, coeff in terms.items():
        if coeff.den is None:
            if coeff.magnitude() <= alg.tol:
                continue
        elif not (coeff.re_num or coeff.im_num):
            continue
        pruned[mono] = coeff
    return pruned


def add(alg, t1, t2):
    out = dict(t1)
    for m, c in t2.items():
        out[m] = out.get(m, ZERO) + c
    return prune(alg, out)


def neg(alg, t):
    return prune(alg, {m: -c for m, c in t.items()})


def sub(alg, t1, t2):
    return add(alg, t1, neg(alg, t2))


def adjoint(alg, t):
    return prune(alg, {RefMonomial(m.annihilation, m.creation): c.conjugate()
                       for m, c in t.items()})


def mul(alg, t1, t2):
    out = defaultdict(lambda: ZERO)
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            accumulate_product(alg, m1, c1 * c2, m2, out)
    return prune(alg, dict(out))


def commutator(alg, t1, t2):
    gen_self, gen_other = _generator(t1), _generator(t2)
    if gen_self is None and gen_other is not None:
        return _generator_commutator(alg, t1, *gen_other, left=True)
    if gen_other is None and gen_self is not None:
        return _generator_commutator(alg, t2, *gen_self, left=False)
    reach = alg.theta.reach
    terms2 = [(m2, c2, m2.mode_masks[0], reach(m2.mode_masks[1])) for m2, c2 in t2.items()]
    out = defaultdict(lambda: ZERO)
    for m1, c1 in t1.items():
        ann1, cre1 = m1.mode_masks
        if not (ann1 or cre1):
            continue
        reach1 = reach(cre1)
        for m2, c2, ann2, reach2 in terms2:
            forward, backward = ann1 & reach2, ann2 & reach1
            if not (forward or backward):
                continue
            c = c1 * c2
            if forward:
                accumulate_product(alg, m1, c, m2, out, contracted=True)
            if backward:
                accumulate_product(alg, m2, -c, m1, out, contracted=True)
    return prune(alg, dict(out))


def _generator(t):
    if len(t) == 1:
        (m, c), = t.items()
        return m.generator if c.den == 1 and c.re_num == 1 and not c.im_num else None


def _generator_commutator(alg, t, j, creates, left):
    entries = (alg.theta.col_entries if creates else alg.theta.row_entries)[j][::-1]
    negate = creates != left
    out = {}
    for m, c in t.items():
        cre, ann = m.creation, m.annihilation
        block = ann if creates else cre
        for i, theta_i, unit in entries:
            w = block[i]
            if not w:
                continue
            cut = block[:i] + (w - 1,) + block[i + 1:]
            mono = RefMonomial(cre, cut) if creates else RefMonomial(cut, ann)
            signed = -c if negate else c
            term = signed * Scalar(w) if unit else signed * (theta_i**1 * w)
            out[mono] = out.get(mono, ZERO) + term
    return prune(alg, out)


def accumulate_product(alg, m1, coeff, m2, out, contracted=False):
    """Add the normal-ordered expansion of coeff * m1 * m2 into ``out``, a
    defaultdict starting at ZERO (Wick's theorem, row-major theta pairs)."""
    if coeff.is_zero(0.0):
        return
    k1, h2 = m1.annihilation, m2.creation
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
        mono = RefMonomial(tuple(map(_add, m1.creation, hs)),
                           tuple(map(_add, ks, m2.annihilation)))
        out[mono] = out[mono] + term


def matadd(a, b):
    """{(i, j): terms} of a + b, zero entries dropped, keys sorted."""
    alg, ta, tb = a.algebra, _entries(a), _entries(b)
    out = {key: add(alg, ta.get(key, {}), tb.get(key, {})) for key in ta.keys() | tb.keys()}
    return {key: out[key] for key in sorted(out) if out[key]}


def matmul(a, b):
    """{(i, j): terms} of a @ b, each sum over ascending k from zero."""
    alg, right_rows, out = a.algebra, {}, {}
    for (k, j), right in _entries(b).items():
        right_rows.setdefault(k, []).append((j, right))
    for (i, k), left in _entries(a).items():
        for j, right in right_rows.get(k, ()):
            out[i, j] = add(alg, out.get((i, j), {}), mul(alg, left, right))
    return {key: out[key] for key in sorted(out) if out[key]}


def _entries(m):
    return {key: terms_of(e) for key, e in m.nonzero.items()}
