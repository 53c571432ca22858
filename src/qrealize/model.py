"""Model data type, text-format parser/renderer and doubled-up construction.

``double`` builds every constant of the doubled model, Bbar, Dbar and
Ibar = ``sign_matrix``, with ``matrices.block_diag``.

The model format is line-oriented (``#`` starts a comment):

    modes: 2
    channels: 2
    theta: identity            # or a Hermitian, invertible [[2,1],[1,2]]
    param k1 = 2
    A[1] = -k1*a1 + 2*a1'*a2^2
    B = [[-sqrt(2*k1), 0], [0, -sqrt(2*k2)]]
    C[1] = sqrt(2*k1)*a1
    D = identity
    phi = 2*a1'*a1 + 2*a2'*a2  # optional storage function

Operator expressions use generators ``a1``, ``a1'`` (prime = dagger),
explicit ``*`` for products, ``^`` for positive integer powers, ``i`` for
the imaginary unit and ``sqrt(...)`` of scalar subexpressions; ``i``,
``sqrt`` and every ``a<digits>`` are refused as param names.  Parameter
values are evaluated once, at parse time.  A statement continues over the
following lines while its brackets are open.  modes, channels, theta, B, D,
phi and each param name are declared at most once, and the three headers
before the first A, B, C, D or phi statement.  A declared theta must be
Hermitian and invertible; it is inverted once, here.  A ParseError names
the line and the 1-based column, counted from the start of that source
line, of the offending token; a token's column is worked out only then.

A mode-free subexpression (numbers, params, ``i``, ``sqrt`` and the
operators between them) folds to a ``Scalar``, exactly as the one-term
polynomial it stands for would: a binary64 value at or below the tolerance
drops to zero.  A constant becomes a polynomial only where it meets a
generator, so ``k1*a1`` is one scaling.  Each bound is checked before the
work it bounds, at the token named: MAX_DIGITS = 1,000 digits of a number
written out without its exponent (``1e400`` has 401) as its line is read;
MAX_MODES = 128 at the count of ``modes:`` or ``channels:``; MAX_NESTING =
64 at a ``(`` or ``sqrt``; MAX_EXPONENT = 64 and MAX_DEGREE = 32 of a power
at its exponent; MAX_DEGREE and MAX_TERM_PAIRS = 10,000 of a product at its
``*`` (of each step of a power at the exponent).  Every operator's result
is tested for finiteness, and one beyond binary64 is refused at that
operator; an exact result always passes.  A matrix literal ends its
statement.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import isfinite

from .algebra import (Algebra, CommutationMatrix, OperatorPolynomial, _format_monomial,
                      format_scalar, render)
from .matrices import OperatorMatrix, block_diag
from .scalars import DEFAULT_TOL, I, ONE, ZERO, Scalar, grid_is_hermitian


class ParseError(ValueError):
    """Model-format syntax or consistency error with source position."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"line {line}, col {col}: {message}" if line else message)
        self.line = line
        self.col = col


@dataclass
class QsdeModel:
    """A bound QSDE model (n modes, m channels) over one algebra."""

    algebra: Algebra
    n: int
    m: int
    A: OperatorMatrix  # n x 1
    B: OperatorMatrix  # n x m
    C: OperatorMatrix  # m x 1
    D: OperatorMatrix  # m x m
    params: dict
    phi: OperatorPolynomial | None = None

    def to_float(self) -> "QsdeModel":
        """Same model with every coefficient degraded to binary64; a ValueError when
        a coefficient is beyond it or the rounded theta, inverted here, is singular."""
        try:
            theta = CommutationMatrix(tuple(tuple(x.to_float() for x in row)
                                            for row in self.algebra.theta.theta))
            try:
                theta.inverse()
            except ValueError:
                raise ValueError("theta cannot be inverted in binary64") from None
            alg = Algebra(self.n, theta, tol=self.algebra.tol)

            def conv_poly(p):
                return OperatorPolynomial(alg, {m: c.to_float() for m, c in p.terms.items()})

            def conv_mat(mat):
                return OperatorMatrix.from_nonzero(alg, mat.rows, mat.cols, {
                    key: conv_poly(e) for key, e in mat.nonzero.items()})

            return QsdeModel(
                algebra=alg,
                n=self.n,
                m=self.m,
                A=conv_mat(self.A),
                B=conv_mat(self.B),
                C=conv_mat(self.C),
                D=conv_mat(self.D),
                params={k: v.to_float() for k, v in self.params.items()},
                phi=conv_poly(self.phi) if self.phi is not None else None,
            )
        except OverflowError:
            raise ValueError("a coefficient is beyond binary64") from None

    def equals(self, other: "QsdeModel") -> bool:
        if self.n != other.n or self.m != other.m:
            return False
        if not self.algebra.compatible(other.algebra):
            return False
        if not all((a - b).is_zero for a, b in ((self.A, other.A), (self.B, other.B),
                                                 (self.C, other.C), (self.D, other.D))):
            return False
        if (self.phi is None) != (other.phi is None):
            return False
        return self.phi is None or self.phi == other.phi


@dataclass
class DoubledModel:
    """The doubled form (abar, Abar, Bbar, Cbar, Dbar) plus derived constants.

    One instance is the shared context of a check run: ``cached`` builds each
    derived matrix once, however many conditions read it.  ``model`` is the
    model it was built from.
    """

    algebra: Algebra
    n: int
    m: int
    abar: OperatorMatrix        # 2n x 1, (a_1..a_n, a_1'..a_n')
    Abar: OperatorMatrix        # 2n x 1
    Bbar: OperatorMatrix        # 2n x 2m
    Cbar: OperatorMatrix        # 2m x 1
    Dbar: OperatorMatrix        # 2m x 2m
    Ibar_matrix: OperatorMatrix  # diag(I_m, -I_m): the CCR sum and PR-B-match
    identity: OperatorMatrix    # 2m x 2m: PR-D-identity and LL-D-unitary
    nbar: int | None            # None when A is identically zero
    model: QsdeModel = field(compare=False, repr=False)
    memo: dict = field(default_factory=dict, repr=False, compare=False)

    def cached(self, key, build):
        """The value of ``build()``, computed on the first call for ``key``."""
        if key not in self.memo:
            self.memo[key] = build()
        return self.memo[key]

    @property
    def Bbar_adjoint(self) -> OperatorMatrix:
        """Bbar', read by the CCR sum, the Bbar commutators and LL-B-gradient."""
        return self.cached("Bbar'", self.Bbar.adjoint)


# -- derived constructions ----------------------------------------------------

def sign_matrix(alg: Algebra, m: int) -> OperatorMatrix:
    """Ibar = diag(I_m, -I_m)."""
    identity = OperatorMatrix.identity(alg, m)
    return block_diag(identity, -identity)


def doubled_generators(alg: Algebra) -> OperatorMatrix:
    """abar = (a_1..a_n, a_1'..a_n') as a column."""
    n = alg.modes
    return OperatorMatrix.column(
        alg,
        [alg.annihilator(j) for j in range(1, n + 1)]
        + [alg.creator(j) for j in range(1, n + 1)],
    )


def double(model: QsdeModel) -> DoubledModel:
    """The doubled model (stacked generator, block matrices); theta must be Hermitian."""
    alg = model.algebra
    if not grid_is_hermitian(alg.theta.theta, alg.tol):
        raise ValueError("theta must be Hermitian")
    Abar = OperatorMatrix.column(alg, model.A.col(0) + [p.adjoint() for p in model.A.col(0)])
    Cbar = OperatorMatrix.column(alg, model.C.col(0) + [p.adjoint() for p in model.C.col(0)])
    nbar = None if model.A.is_zero else compute_nbar(model)
    return DoubledModel(
        algebra=alg,
        n=model.n,
        m=model.m,
        abar=doubled_generators(alg),
        Abar=Abar,
        Bbar=block_diag(model.B, model.B.conj()),
        Cbar=Cbar,
        Dbar=block_diag(model.D, model.D.conj()),
        Ibar_matrix=sign_matrix(alg, model.m),
        identity=OperatorMatrix.identity(alg, 2 * model.m),
        nbar=nbar,
        model=model,
    )


def compute_nbar(model: QsdeModel) -> int:
    """Degree constant of the drift: 1 + max total degree over all A_i terms."""
    if model.A.is_zero:
        raise ValueError("nbar is undefined for an identically zero drift")
    return 1 + max(e.max_degree for e in model.A.entries)


def structural_class_check(model: QsdeModel):
    """Structural form of the drift and output maps.

    Every monomial of every A_i must have annihilation support on at most
    one mode and creation support on at most one mode; every monomial of
    every C_v must be a pure power of a single annihilation generator.
    Returns a list of human-readable violation strings (empty = pass).
    """
    violations = []  # a violating monomial is never the unit: its label is not empty
    for i in range(model.n):
        for mono in model.A.entry(i, 0).terms:
            ann_support = sum(1 for k in mono.annihilation if k)
            cre_support = sum(1 for h in mono.creation if h)
            if ann_support > 1 or cre_support > 1:
                violations.append(
                    f"A[{i + 1}] term {_format_monomial(mono)} mixes "
                    f"{ann_support} annihilation and {cre_support} creation modes"
                )
    for v in range(model.m):
        for mono in model.C.entry(v, 0).terms:
            if any(mono.creation):
                violations.append(
                    f"C[{v + 1}] term {_format_monomial(mono)} contains a creation generator"
                )
            elif sum(1 for k in mono.annihilation if k) > 1:
                violations.append(
                    f"C[{v + 1}] term {_format_monomial(mono)} spans several modes"
                )
    return violations


# -- parsing ------------------------------------------------------------------

# Resource bounds, each checked before the work it bounds is done.
MAX_MODES = 128           # modes: and channels: (the grids are n x n)
MAX_EXPONENT = 64         # k in x^k
MAX_DEGREE = 32           # total degree of a product or power
MAX_TERM_PAIRS = 10_000   # term pairs multiplied out by one product
MAX_NESTING = 64          # nested ( and sqrt( in one expression
MAX_DIGITS = 1000         # digits of a number literal written out without exponent

_TOKEN_RE = re.compile(
    r"\s*(\d+(?:\.\d+)?(?:[eE][-+]?\d+)?|[A-Za-z_][A-Za-z_0-9]*|[-+*/^()\[\],'=:]|\S)")
# a line without these has no stray character or number beyond MAX_DIGITS
_CHECKED_RE = re.compile(r"[^\s\dA-Za-z_\-+*/^()\[\],'=:]|\d(?:[eE]|\d{%d})" % MAX_DIGITS)
_SYMS = frozenset("-+*/^()[],'=:")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ_abcdefghijklmnopqrstuvwxyz")


def _tokenize(body: str, line: int) -> list:
    """The token texts of one source line, ``body``; a line the pre-scan flags
    is walked for a stray character (a token of its own) and a long number."""
    tokens = _TOKEN_RE.findall(body)
    if _CHECKED_RE.search(body):
        where = [(line, 0, body)]
        for k, text in enumerate(tokens):
            if text[0].isdecimal():  # as \d: "²" is a digit but starts no number
                mantissa, _, exp = text.lower().partition("e")
                digits = len(mantissa.replace(".", ""))
                if max(digits, len(exp)) > MAX_DIGITS or digits + abs(int(exp or 0)) > MAX_DIGITS:
                    raise ParseError(f"number exceeds {MAX_DIGITS} digits", *_where(where, k))
            elif text[0] not in _SYMS and text[0] not in _NAME_START:
                raise ParseError(f"unexpected character {text!r}", *_where(where, k))
    return tokens


def _statements(text: str):
    """Each statement as its token texts and the (line, first token, body) of
    each source line it spans: a line's tokens, continued over the following
    lines while a bracket is open."""
    toks, lines, depth = [], [], 0
    for lineno, body in enumerate(text.splitlines(), start=1):
        body = body.split("#", 1)[0]
        if line_tokens := _tokenize(body, lineno):
            lines.append((lineno, len(toks), body))
            toks += line_tokens
            depth += (line_tokens.count("(") + line_tokens.count("[")
                      - line_tokens.count(")") - line_tokens.count("]"))
            if depth <= 0:
                yield toks, lines
                toks, lines, depth = [], [], 0
    if toks:
        yield toks, lines


def _where(lines, k: int):
    """(line, col) of token ``k`` of a statement spanning ``lines``."""
    line, first, body = next(x for x in reversed(lines) if x[1] <= k)
    return line, [m.start(1) + 1 for m in _TOKEN_RE.finditer(body)][k - first]


def _prune(c: Scalar, tol: float) -> Scalar:
    """c, or ZERO where the polynomial constructor would drop c as a coefficient."""
    if c.den is not None:
        return c if c.re_num or c.im_num else ZERO
    return c if abs(c.re_num) > tol or abs(c.im_num) > tol or c.magnitude() > tol else ZERO


def _finite(c: Scalar) -> bool:
    return c.den is not None or isfinite(c.re_num) and isfinite(c.im_num)


def _fold(sym: str, a: Scalar, b: Scalar, tol: float) -> Scalar:
    """a sym b for two constants, as their one-term polynomials give it: a
    quotient scales a by ONE / b, and ZERO stands for the empty one."""
    if sym == "/":
        inverse = ONE / b
        return _prune(inverse * a, tol) if a.re_num or a.im_num else ZERO
    if sym == "-":
        b = -b
    if not (a.re_num or a.im_num):
        return ZERO if sym == "*" else b
    if not (b.re_num or b.im_num):
        return ZERO if sym == "*" else a
    return _prune(a * b if sym == "*" else a + b, tol)


class _Parser:
    """Recursive descent over a statement's tokens, from index ``idx``.

    A mode-free value is a Scalar (see ``_fold``); it becomes a polynomial
    over the operand's algebra only where it meets one.  Without ``alg`` (a
    param or theta, which name no mode) a generator stands for a1 of a
    one-mode scratch algebra and sets ``nonscalar``.
    """

    def __init__(self, statement, idx, params, tol, alg=None):
        (self.toks, self.lines), self.n, self.idx = statement, len(statement[0]), idx
        self.params, self.tol, self.alg, self.scalar = params, tol, alg, alg is None
        self.nonscalar, self.depth = False, 0

    def fail(self, message: str, k: int) -> ParseError:
        return ParseError(message, *_where(self.lines, k))

    def next(self) -> str:
        if self.idx < self.n:
            self.idx += 1
            return self.toks[self.idx - 1]
        line, col = _where(self.lines, self.n - 1) if self.n else (0, 1)
        raise ParseError("unexpected end of expression", line, col + len("".join(self.toks[-1:])))

    def expect(self, sym: str):
        if (text := self.next()) != sym:
            raise self.fail(f"expected {sym!r}, found {text!r}", self.idx - 1)

    def end(self, value):
        """``value``, once no token is left in the statement."""
        if self.idx < self.n:
            raise self.fail(f"unexpected {self.toks[self.idx]!r}", self.idx)
        return value

    def bracketed(self, item):
        """``[item, item, ...]``: the items."""
        self.expect("[")
        items = []
        while True:
            items.append(item())
            if (text := self.next()) == "]":
                return items
            if text != ",":
                raise self.fail(f"expected ',' or ']', found {text!r}", self.idx - 1)

    def matrix(self):
        """The rest of the statement, a ``[[...], ...]`` literal: its rows of values."""
        rows = self.end(self.bracketed(lambda: self.bracketed(self.expr)))
        if any(len(r) != len(rows[0]) for r in rows):
            raise ParseError("ragged matrix literal", self.lines[0][0], 1)
        return rows

    def expr(self):
        """A sum of terms, each a product of factors; left to right at each level."""
        toks, n = self.toks, self.n
        acc, op = None, 0  # the sum so far, and the index of the sign before the term
        while True:
            term = self.factor()
            while self.idx < n:
                if (sym := toks[self.idx]) in "*/":
                    self.idx += 1
                    term = self.binary(self.idx - 1, sym, term, self.factor())
                elif sym[0] not in _SYMS:
                    raise self.fail("juxtaposition is not multiplication; use '*'", self.idx)
                else:
                    break
            acc = term if acc is None else self.binary(op, toks[op], acc, term)
            if self.idx == n or toks[self.idx] not in "+-":
                return acc
            op, self.idx = self.idx, self.idx + 1

    def factor(self):
        # unary signs bind looser than '^', so -a1^2 means -(a1^2)
        toks, n, negate = self.toks, self.n, False
        while self.idx < n and (text := toks[self.idx]) in "+-":
            negate, self.idx = negate ^ (text == "-"), self.idx + 1
        text, at = self.next(), self.idx - 1
        if text[0] in _NAME_START and text != "sqrt":
            if text[0] == "a" and text[1:].isdigit():
                mode, alg = int(text[1:]), self.alg
                if self.scalar:
                    self.nonscalar, mode = True, 1
                    alg = self.alg = alg or Algebra(1, tol=self.tol)
                elif not 1 <= mode <= alg.modes:
                    raise self.fail(f"unknown mode a{mode}; model has {alg.modes} modes", at)
                creates = self.idx < n and toks[self.idx] == "'"
                self.idx += creates
                base = alg.creator(mode) if creates else alg.annihilator(mode)
            elif text == "i":
                base = I
            elif text in self.params:
                base = self.params[text]
            else:
                raise self.fail(f"unknown parameter {text!r}", at)
        elif text in ("(", "sqrt"):
            base = self.bracket(text, at)
        elif text[0] not in _SYMS:
            base = Scalar(int(text) if text.isdigit() else Fraction(text))
            base = base if base.re_num else ZERO
        else:
            raise self.fail(f"unexpected {text!r}", at)
        while self.idx < n and toks[self.idx] == "^":
            self.idx += 1
            text, at = self.next(), self.idx - 1
            if not text.isdigit() or int(text) < 1:
                raise self.fail("exponent must be a positive integer", at)
            if (k := int(text)) > MAX_EXPONENT:
                raise self.fail(f"exponent exceeds {MAX_EXPONENT}", at)
            if type(base) is not Scalar and base.max_degree * k > MAX_DEGREE:
                raise self.fail(f"degree exceeds {MAX_DEGREE}", at)
            power = ONE
            for _ in range(k):
                power = self.binary(at, "*", power, base)
            base = power
        return -base if negate else base

    def bracket(self, text: str, at: int):
        """``( expr )`` or ``sqrt( expr )``, opened by ``text`` at token ``at``."""
        if text == "sqrt":
            self.expect("(")
        if self.depth == MAX_NESTING:
            raise self.fail(f"brackets nested deeper than {MAX_NESTING}", at)
        self.depth += 1
        inner = self.expr()
        self.depth -= 1
        self.expect(")")
        if text == "(":
            return inner
        if type(inner) is not Scalar:
            if not inner.is_constant:
                raise self.fail("sqrt of a non-scalar expression", at)
            inner = inner.constant_value()
        try:
            root = _prune(inner.sqrt(), self.tol)
        except OverflowError:
            root = None
        if root is None or not _finite(root):
            raise self.fail("number too large for binary64", at)
        return root

    def binary(self, at: int, sym: str, lhs, rhs):
        """lhs ``sym`` rhs as their polynomials give it, refused at token ``at``
        where it exceeds a bound, divides by zero or leaves the binary64 range."""
        if sym == "/" and type(rhs) is not Scalar:
            if not rhs.is_constant:
                raise self.fail("division by a non-constant operator", at)
            rhs = rhs.constant_value()
        lconst, rconst = type(lhs) is Scalar, type(rhs) is Scalar
        try:
            if lconst and rconst:
                value = _fold(sym, lhs, rhs, self.tol)
            elif sym == "/":
                value = lhs.scale(ONE / rhs)
            elif sym != "*":
                alg = (rhs if lconst else lhs).algebra
                lhs, rhs = (alg.scalar(v) if type(v) is Scalar else v for v in (lhs, rhs))
                value = lhs + rhs if sym == "+" else lhs - rhs
            elif lconst or rconst:
                c, p = (lhs, rhs) if lconst else (rhs, lhs)
                if not (c.re_num or c.im_num):
                    return p.algebra.zero()
                if len(p.terms) > MAX_TERM_PAIRS:
                    raise self.fail(f"product exceeds {MAX_TERM_PAIRS} term pairs", at)
                value = p.scale(c)
            elif lhs.max_degree + rhs.max_degree > MAX_DEGREE:
                raise self.fail(f"degree exceeds {MAX_DEGREE}", at)
            elif len(lhs.terms) * len(rhs.terms) > MAX_TERM_PAIRS:
                raise self.fail(f"product exceeds {MAX_TERM_PAIRS} term pairs", at)
            else:
                value = lhs * rhs
        except ZeroDivisionError:
            raise self.fail("division by zero", at) from None
        except OverflowError:
            value = None
        if value is None or not (_finite(value) if type(value) is Scalar
                                 else all(map(_finite, value.terms.values()))):
            raise self.fail("number too large for binary64", at)
        return value


def _lift(value, alg: Algebra) -> OperatorPolynomial:
    """A parsed value as a polynomial over ``alg``."""
    return alg.scalar(value) if type(value) is Scalar else value


def parse_expression(text: str, algebra: Algebra,
                     params: dict | None = None) -> OperatorPolynomial:
    parser = _Parser((_tokenize(text, 0), [(0, 0, text)]), 0, params or {}, algebra.tol, algebra)
    return _lift(parser.end(parser.expr()), algebra)


def parse_model(text: str, tol: float = DEFAULT_TOL) -> QsdeModel:
    """Parse and fully bind a model; raises ParseError on any defect."""
    n = m = None
    theta = None  # (line, rows, nonscalar) of a theta literal; None is the identity
    params: dict = {}
    entries = {"A": {}, "C": {}}
    literals = {"D": "identity"}  # B and D: "identity" or (line, rows)
    phi = algebra = None
    declared = set()

    def declare(key, lines):
        """Refuses a header once the algebra is bound (by the first A, B, C, D
        or phi statement), and a second statement of the same keyword."""
        header = key in ("modes", "channels", "theta")
        if header and algebra is not None:
            raise ParseError(f"{key!r} must be declared before A, B, C, D and phi",
                             *_where(lines, 0))
        if key in declared:
            raise ParseError(f"duplicate {key!r} declaration" if header
                             else f"duplicate {key}", *_where(lines, 0))
        declared.add(key)

    def require_algebra(lineno):
        nonlocal algebra
        if algebra is None:
            if n is None or m is None:
                raise ParseError("modes and channels must be declared first", lineno, 1)
            grid_theta = None
            if theta is not None:
                line, rows, nonscalar = theta
                if nonscalar:
                    raise ParseError("theta entries must be scalars", line, 1)
                if len(rows) != n or any(len(r) != n for r in rows):
                    raise ParseError(f"theta must be {n}x{n}", line, 1)
                grid_theta = CommutationMatrix(rows)
                try:
                    hermitian = grid_is_hermitian(grid_theta.theta, tol)
                    if hermitian:
                        grid_theta.inverse()  # cached for the checks
                except OverflowError:  # a binary64 entry met one beyond binary64
                    raise ParseError("number too large for binary64", line, 1) from None
                except ValueError:
                    raise ParseError("theta must be invertible", line, 1) from None
                if not hermitian:
                    raise ParseError("theta must be Hermitian", line, 1)
            algebra = Algebra(n, grid_theta, tol=tol)
        return algebra

    for statement in _statements(text):
        toks, lines = statement
        lineno, identity = lines[0][0], len(toks) == 3 and toks[2] == "identity"
        match toks[:5]:
            case ["modes" | "channels" as key, ":", *_]:
                declare(key, lines)
                if len(toks) != 3 or not toks[2].isdigit() or int(toks[2]) < 1:
                    raise ParseError(f"{key} must be a positive integer", lineno, 1)
                if int(toks[2]) > MAX_MODES:
                    raise ParseError(f"{key} exceeds {MAX_MODES}", *_where(lines, 2))
                n, m = (int(toks[2]), m) if key == "modes" else (n, int(toks[2]))
            case ["theta", ":", *_]:
                declare("theta", lines)
                if not identity:
                    parser = _Parser(statement, 2, params, tol)
                    theta = (lineno, parser.matrix(), parser.nonscalar)
            case ["param", name, "=", *_] if name[0] in _NAME_START:
                if name in ("i", "sqrt") or name[0] == "a" and name[1:].isdigit():
                    raise ParseError(f"{name!r} is reserved and cannot name a parameter",
                                     *_where(lines, 1))
                if name in params:
                    raise ParseError(f"duplicate parameter {name!r}", *_where(lines, 1))
                parser = _Parser(statement, 3, params, tol)
                params[name] = parser.end(parser.expr())
                if parser.nonscalar:
                    raise ParseError(f"parameter {name!r} is not a scalar", lineno, 1)
            case ["A" | "C" as which, "[", index, "]", "="] if index.isdigit():
                alg = require_algebra(lineno)
                idx, limit = int(index), n if which == "A" else m
                if not 1 <= idx <= limit:
                    raise ParseError(f"{which}[{idx}] out of range 1..{limit}", lineno, 1)
                if idx in entries[which]:
                    raise ParseError(f"duplicate {which}[{idx}]", lineno, 1)
                parser = _Parser(statement, 5, params, tol, alg)
                entries[which][idx] = _lift(parser.end(parser.expr()), alg)
            case ["B" | "D" as which, "=", *_]:
                declare(which, lines)
                alg = require_algebra(lineno)
                if identity and which == "B":
                    raise ParseError("B must be a matrix literal", lineno, 1)
                literals[which] = "identity" if identity else (
                    lineno, _Parser(statement, 2, params, tol, alg).matrix())
            case ["phi", "=", *_]:
                declare("phi", lines)
                parser = _Parser(statement, 2, params, tol, require_algebra(lineno))
                phi = _lift(parser.end(parser.expr()), parser.alg)
            case _:
                source = " ".join(body.strip() for _, _, body in lines)
                raise ParseError(f"unrecognized statement {source!r}", lineno, 1)

    if n is None:
        raise ParseError("missing 'modes:' declaration")
    if m is None:
        raise ParseError("missing 'channels:' declaration")
    alg = require_algebra(0)
    for which, size, role in (("A", n, "drift"), ("C", m, "output")):
        missing = [i for i in range(1, size + 1) if i not in entries[which]]
        if missing:
            raise ParseError(f"missing {role} entries {which}{missing}")
    if "B" not in literals:
        raise ParseError("missing noise matrix B")

    def literal(which, rows, cols):
        if literals[which] == "identity":
            return OperatorMatrix.identity(alg, cols)
        line, values = literals[which]
        if len(values) != rows or any(len(r) != cols for r in values):
            raise ParseError(f"{which} must be {rows}x{cols}", line, 1)
        # a ZERO entry is the algebra's shared zero: it builds nothing
        return OperatorMatrix(alg, rows, cols, [_lift(e, alg) for r in values for e in r])

    B, D = literal("B", n, m), literal("D", m, m)
    A, C = (OperatorMatrix.column(alg, [entries[which][i] for i in range(1, size + 1)])
            for which, size in (("A", n), ("C", m)))
    return QsdeModel(alg, n, m, A, B, C, D, params, phi)


# -- rendering ----------------------------------------------------------------

def render_model(model: QsdeModel) -> str:
    """Canonical text form; parse(render(parse(x))) equals parse(x)."""

    def rows(grid_rows, fmt):
        return "[" + ", ".join("[" + ", ".join(fmt(x) for x in row) + "]"
                               for row in grid_rows) + "]"

    def expr(p):
        return render(p, parsable=True)

    def matrix(mat):
        return rows(([mat.entry(i, j) for j in range(mat.cols)] for i in range(mat.rows)), expr)

    lines = [f"modes: {model.n}", f"channels: {model.m}"]
    if model.algebra.theta.is_identity:
        lines.append("theta: identity")
    else:
        theta = rows(model.algebra.theta.theta, lambda x: format_scalar(x, parsable=True))
        lines.append(f"theta: {theta}")
    lines += [f"A[{i + 1}] = {expr(model.A.entry(i, 0))}" for i in range(model.n)]
    lines.append(f"B = {matrix(model.B)}")
    lines += [f"C[{v + 1}] = {expr(model.C.entry(v, 0))}" for v in range(model.m)]
    if (model.D - OperatorMatrix.identity(model.algebra, model.m)).is_zero:
        lines.append("D = identity")
    else:
        lines.append(f"D = {matrix(model.D)}")
    if model.phi is not None:
        lines.append(f"phi = {expr(model.phi)}")
    return "\n".join(lines) + "\n"
