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
following lines while its brackets are open.  Each statement kind is a row
of ``_STATEMENTS``, which gives its rules.  A declared theta must be
Hermitian and invertible; it is inverted once, here.  A ParseError names
the line and the 1-based column, counted from the start of that source
line, of the offending token; a token's column is worked out only then.

A mode-free subexpression (numbers, params, ``i``, ``sqrt`` and the
operators between them) folds to a ``Scalar``, exactly as the one-term
polynomial it stands for would: a binary64 value whose modulus is at or
below the tolerance drops to zero.  A constant becomes a polynomial only
where it meets a generator, so ``k1*a1`` is one scaling.  Each bound is
checked before the work it bounds, at the token named: MAX_DIGITS = 1,000
digits of a number written out without its exponent (``1e400`` has 401) as
its line is read; MAX_MODES = 128 at the count of ``modes:`` or
``channels:``; MAX_NESTING = 64 at a ``(`` or ``sqrt``; MAX_EXPONENT = 64
and MAX_DEGREE = 32 of a power at its exponent; MAX_DEGREE and
MAX_TERM_PAIRS = 10,000 of a product at its ``*`` (of each step of a power
at the exponent).  Every operator's result is tested for finiteness, and
one beyond binary64 is refused at that operator; an exact result always
passes.  A matrix literal ends its statement.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import isfinite

from .algebra import (Algebra, CommutationMatrix, OperatorPolynomial, _format_monomial,
                      format_scalar, render)
from .matrices import OperatorMatrix, block_diag
from .scalars import DEFAULT_TOL, I, ONE, ZERO, Scalar


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
    if not alg.hermitian:
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


def _where(lines, k: int | None):
    """(line, col) of token ``k`` of a statement spanning ``lines``; column 1 of
    its first line when ``k`` is None."""
    if k is None:
        return lines[0][0], 1
    line, first, body = next(x for x in reversed(lines) if x[1] <= k)
    return line, [m.start(1) + 1 for m in _TOKEN_RE.finditer(body)][k - first]


def _finite(c: Scalar) -> bool:
    return c.den is not None or isfinite(c.re_num) and isfinite(c.im_num)


def _fold(sym: str, a: Scalar, b: Scalar, tol: float) -> Scalar:
    """a sym b for two constants, as their one-term polynomials give it: a
    quotient scales a by ONE / b, and a value they would drop is ZERO."""
    if sym == "/":
        value = ONE / b * a
    else:
        value = a * b if sym == "*" else a + b if sym == "+" else a - b
    return ZERO if value.is_zero(tol) else value


class _Parser:
    """Recursive descent over a statement's tokens, from index ``idx``.

    A mode-free value is a Scalar (see ``_fold``); it becomes a polynomial
    over the operand's algebra only where it meets one.  Without ``alg`` (a
    param or theta, which name no mode) a generator stands for a1 of a
    one-mode scratch algebra and sets ``nonscalar``.  A name reads the value
    ``store`` holds under ("param", name).
    """

    def __init__(self, statement, idx, store, tol, alg=None):
        (self.toks, self.lines), self.n, self.idx = statement, len(statement[0]), idx
        self.store, self.tol, self.alg, self.scalar = store, tol, alg, alg is None
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
            elif ("param", text) in self.store:
                base = self.store["param", text]
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
            root = inner.sqrt()
        except OverflowError:
            root = None
        if root is None or not _finite(root):
            raise self.fail("number too large for binary64", at)
        return ZERO if root.is_zero(self.tol) else root

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
    """A parsed value as a polynomial over ``alg``; None stays None."""
    return alg.scalar(value) if type(value) is Scalar else value


def parse_expression(text: str, algebra: Algebra,
                     params: dict | None = None) -> OperatorPolynomial:
    store = {("param", name): value for name, value in (params or {}).items()}
    parser = _Parser((_tokenize(text, 0), [(0, 0, text)]), 0, store, algebra.tol, algebra)
    return _lift(parser.end(parser.expr()), algebra)


# kind: (head, name at, header, binds, value, index limit, repeat refusal, at).
# ``head`` is the tokens before the value; its None, at ``name at``, stands for a
# param name or an index, and the statement's key is then (kind, name), else kind.
# A header must come before the first statement that binds the algebra.  A value is
# a "count", a "matrix" literal, one or "identity", or an "expr".  An index lies in
# 1..the count of its limit.  A repeat is refused at token ``at`` (None: column 1).
_STATEMENTS = {
    "modes": (["modes", ":"], 0, True, False, "count", None, "duplicate {!r} declaration", 0),
    "channels": (["channels", ":"], 0, True, False, "count", None,
                 "duplicate {!r} declaration", 0),
    "theta": (["theta", ":"], 0, True, False, "identity", None, "duplicate {!r} declaration", 0),
    "param": (["param", None, "="], 1, False, False, "expr", None, "duplicate parameter {!r}", 1),
    "A": (["A", "[", None, "]", "="], 2, False, True, "expr", "modes", "duplicate A[{}]", None),
    "C": (["C", "[", None, "]", "="], 2, False, True, "expr", "channels", "duplicate C[{}]", None),
    "B": (["B", "="], 0, False, True, "matrix", None, "duplicate {}", 0),
    "D": (["D", "="], 0, False, True, "identity", None, "duplicate {}", 0),
    "phi": (["phi", "="], 0, False, True, "expr", None, "duplicate {}", 0),
}


def parse_model(text: str, tol: float = DEFAULT_TOL) -> QsdeModel:
    """Parse and fully bind a model; raises ParseError on any defect.  Each statement,
    classified once by ``_STATEMENTS``, meets the rules reserved name, header after
    binding, bind, index range, repeat and value in order, and leaves its value in
    ``store`` under its key (for theta, B and D: None, or (line, rows, nonscalar))."""
    store, algebra = {}, None

    def literal(key, rows, cols):
        """The rows of matrix statement ``key``, refused unless rows x cols scalars."""
        line, values, nonscalar = store[key]
        if nonscalar:
            raise ParseError(f"{key} entries must be scalars", line, 1)
        if len(values) != rows or any(len(r) != cols for r in values):
            raise ParseError(f"{key} must be {rows}x{cols}", line, 1)
        return values

    def bind(line):
        """The algebra of the headers; refused at ``line`` before both counts."""
        if "modes" not in store or "channels" not in store:
            raise ParseError("modes and channels must be declared first", line, 1)
        n, theta = store["modes"], store.get("theta")
        alg = Algebra(n, literal("theta", n, n) if theta else None, tol=tol)
        try:
            if theta and alg.hermitian:  # decided once, for double() too
                alg.theta.inverse()  # cached for the checks
        except OverflowError:  # a binary64 entry met one beyond binary64
            raise ParseError("number too large for binary64", theta[0], 1) from None
        except ValueError:
            raise ParseError("theta must be invertible", theta[0], 1) from None
        if not alg.hermitian:
            raise ParseError("theta must be Hermitian", theta[0], 1)
        return alg

    for statement in _statements(text):
        toks, lines = statement
        row = _STATEMENTS.get(kind := toks[0])
        if fits := row is not None and len(toks) >= len(row[0]):
            head, var, header, binds, form, limit, repeat, at = row
            words, arg = toks[:len(head)], toks[var]
            words[var] = head[var]  # None at a name, else the kind
            fits = words == head and (arg.isdigit() if limit else arg[0] in _NAME_START)
        if not fits:
            source = " ".join(body.strip() for _, _, body in lines)
            raise ParseError(f"unrecognized statement {source!r}", *_where(lines, None))
        key = (kind, arg := int(arg) if limit else arg) if var else kind
        if kind == "param" and (arg in ("i", "sqrt") or arg[0] == "a" and arg[1:].isdigit()):
            raise ParseError(f"{arg!r} is reserved and cannot name a parameter",
                             *_where(lines, var))
        if header and algebra is not None:
            raise ParseError(f"{kind!r} must be declared before A, B, C, D and phi",
                             *_where(lines, 0))
        if binds and algebra is None:
            algebra = bind(lines[0][0])
        if limit and not 1 <= arg <= store[limit]:
            raise ParseError(f"{kind}[{arg}] out of range 1..{store[limit]}", *_where(lines, None))
        if key in store:
            raise ParseError(repeat.format(arg), *_where(lines, at))
        start = len(head)
        if form == "expr":
            parser = _Parser(statement, start, store, tol, algebra if binds else None)
            store[key] = parser.end(parser.expr())
            if parser.nonscalar:  # a param, read without an algebra, named a mode
                raise ParseError(f"parameter {arg!r} is not a scalar", *_where(lines, None))
        elif form == "count":
            count = toks[start] if len(toks) == start + 1 else ""
            if not count.isdigit() or int(count) < 1:
                raise ParseError(f"{kind} must be a positive integer", *_where(lines, None))
            if int(count) > MAX_MODES:
                raise ParseError(f"{kind} exceeds {MAX_MODES}", *_where(lines, start))
            store[key] = int(count)
        elif toks[start:] == ["identity"]:
            if form == "matrix":
                raise ParseError(f"{kind} must be a matrix literal", *_where(lines, None))
            store[key] = None
        else:
            parser = _Parser(statement, start, store, tol, algebra if binds else None)
            store[key] = lines[0][0], parser.matrix(), parser.nonscalar

    for key in ("modes", "channels"):
        if key not in store:
            raise ParseError(f"missing '{key}:' declaration")
    alg = algebra if algebra is not None else bind(0)
    n, m = store["modes"], store["channels"]
    for which, size, role in (("A", n, "drift"), ("C", m, "output")):
        missing = [j for j in range(1, size + 1) if (which, j) not in store]
        if missing:
            raise ParseError(f"missing {role} entries {which}{missing}")
    if "B" not in store:
        raise ParseError("missing noise matrix B")
    # a ZERO entry is the algebra's shared zero: it builds nothing
    B, D = (OperatorMatrix(alg, k, m, [_lift(e, alg) for r in literal(key, k, m) for e in r])
            if store.get(key) else OperatorMatrix.identity(alg, m)
            for key, k in (("B", n), ("D", m)))
    A, C = (OperatorMatrix.column(alg, [_lift(store[which, j], alg) for j in range(1, size + 1)])
            for which, size in (("A", n), ("C", m)))
    params = {k[1]: v for k, v in store.items() if k[0] == "param"}  # a kind's [0]: a letter
    return QsdeModel(alg, n, m, A, B, C, D, params, _lift(store.get("phi"), alg))


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
