"""Model data type, text-format parser/renderer and doubled-up construction.

The model format is line-oriented (``#`` starts a comment):

    modes: 2
    channels: 2
    theta: identity            # or a Hermitian [[2,1],[1,2]]
    param k1 = 2
    A[1] = -k1*a1 + 2*a1'*a2^2
    B = [[-sqrt(2*k1), 0], [0, -sqrt(2*k2)]]
    C[1] = sqrt(2*k1)*a1
    D = identity
    phi = 2*a1'*a1 + 2*a2'*a2  # optional storage function

Operator expressions use generators ``a1``, ``a1'`` (prime = dagger),
explicit ``*`` for products, ``^`` for positive integer powers, ``i`` for
the imaginary unit and ``sqrt(...)`` of scalar subexpressions.  Parameter
values are evaluated once, at parse time.  A statement continues over the
following lines while its brackets are open.  A ParseError names the line
and the 1-based column, counted from the start of that source line, of the
offending token.  Parsing refuses there more than MAX_MODES = 128 modes or
channels, an exponent above MAX_EXPONENT = 64, a product or power of degree
above MAX_DEGREE = 32 or of more than MAX_TERM_PAIRS = 10,000 term pairs,
brackets nested deeper than MAX_NESTING = 64, and a number literal of more
than MAX_DIGITS = 1,000 digits written out without its exponent (so
``1e400`` has 401).  A matrix literal ends its statement.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import isfinite

from .algebra import Algebra, CommutationMatrix, OperatorPolynomial, format_scalar, render
from .matrices import OperatorMatrix
from .scalars import (
    DEFAULT_TOL,
    ONE,
    ZERO,
    Scalar,
    block_diag,
    grid_is_hermitian,
    identity_grid,
    zero_grid,
)


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

    @property
    def theta(self) -> CommutationMatrix:
        return self.algebra.theta

    def to_float(self) -> "QsdeModel":
        """Same model with every coefficient degraded to binary64."""
        alg = Algebra(
            self.n,
            CommutationMatrix(
                tuple(tuple(x.to_float() for x in row) for row in self.theta.theta)
            ),
            tol=self.algebra.tol,
        )

        def conv_poly(p):
            return OperatorPolynomial(alg, {m: c.to_float() for m, c in p.terms.items()})

        def conv_mat(mat):
            return OperatorMatrix(alg, mat.rows, mat.cols, [conv_poly(e) for e in mat.entries])

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

    def equals(self, other: "QsdeModel") -> bool:
        if self.n != other.n or self.m != other.m:
            return False
        if not self.algebra.compatible(other.algebra):
            return False
        if not (self.A == other.A and self.B == other.B
                and self.C == other.C and self.D == other.D):
            return False
        if (self.phi is None) != (other.phi is None):
            return False
        return self.phi is None or self.phi == other.phi


@dataclass
class DoubledModel:
    """The doubled form (abar, Abar, Bbar, Cbar, Dbar) plus derived constants.

    One instance is the shared context of a check run: ``cached`` builds each
    derived matrix once, however many conditions read it.
    """

    algebra: Algebra
    n: int
    m: int
    abar: OperatorMatrix        # 2n x 1, (a_1..a_n, a_1'..a_n')
    Abar: OperatorMatrix        # 2n x 1
    Bbar: OperatorMatrix        # 2n x 2m
    Cbar: OperatorMatrix        # 2m x 1
    Dbar: OperatorMatrix        # 2m x 2m
    Ibar: tuple                 # diag(I_m, -I_m)
    Ibar_matrix: OperatorMatrix  # Ibar as polynomials: the CCR sum and PR-B-match
    identity: OperatorMatrix    # 2m x 2m: PR-D-identity and LL-D-unitary
    nbar: int | None            # None when A is identically zero
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


@dataclass
class NoiseSpec:
    """Ito matrix F and commutation matrix T of the doubled noise."""

    F: tuple
    T: tuple

    @classmethod
    def default(cls, m: int) -> "NoiseSpec":
        return cls(F=block_diag(identity_grid(m), zero_grid(m, m)), T=sign_grid(m))


# -- derived constructions ----------------------------------------------------

def sign_grid(m: int) -> tuple:
    """Ibar = diag(I_m, -I_m)."""
    diagonal = (ONE,) * m + (-ONE,) * m
    return tuple(tuple(diagonal[i] if i == j else ZERO for j in range(2 * m))
                 for i in range(2 * m))


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
    Bbar = _block_diag_op(model.B, model.B.conj())
    Dbar = _block_diag_op(model.D, model.D.conj())
    nbar = None if model.A.is_zero else compute_nbar(model)
    Ibar = sign_grid(model.m)
    return DoubledModel(
        algebra=alg,
        n=model.n,
        m=model.m,
        abar=doubled_generators(alg),
        Abar=Abar,
        Bbar=Bbar,
        Cbar=Cbar,
        Dbar=Dbar,
        Ibar=Ibar,
        Ibar_matrix=OperatorMatrix.from_scalars(alg, Ibar),
        identity=OperatorMatrix.identity(alg, 2 * model.m),
        nbar=nbar,
    )


def _block_diag_op(top: OperatorMatrix, bottom: OperatorMatrix) -> OperatorMatrix:
    nonzero = dict(top.nonzero)
    nonzero.update(((i + top.rows, j + top.cols), e) for (i, j), e in bottom.nonzero.items())
    return OperatorMatrix.from_nonzero(top.algebra, top.rows + bottom.rows,
                                       top.cols + bottom.cols, nonzero)


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
    violations = []
    for i in range(model.n):
        for mono in model.A.entry(i, 0).terms:
            ann_support = sum(1 for k in mono.annihilation if k)
            cre_support = sum(1 for h in mono.creation if h)
            if ann_support > 1 or cre_support > 1:
                violations.append(
                    f"A[{i + 1}] term {_mono_label(mono)} mixes "
                    f"{ann_support} annihilation and {cre_support} creation modes"
                )
    for v in range(model.m):
        for mono in model.C.entry(v, 0).terms:
            if any(mono.creation):
                violations.append(
                    f"C[{v + 1}] term {_mono_label(mono)} contains a creation generator"
                )
            elif sum(1 for k in mono.annihilation if k) > 1:
                violations.append(
                    f"C[{v + 1}] term {_mono_label(mono)} spans several modes"
                )
    return violations


def _mono_label(mono) -> str:
    from .algebra import _format_monomial

    return _format_monomial(mono) or "1"


# -- parsing ------------------------------------------------------------------

# Resource bounds, each checked before the work it bounds is done.
MAX_MODES = 128           # modes: and channels: (the grids are n x n)
MAX_EXPONENT = 64         # k in x^k
MAX_DEGREE = 32           # total degree of a product or power
MAX_TERM_PAIRS = 10_000   # term pairs multiplied out by one product
MAX_NESTING = 64          # nested ( and sqrt( in one expression
MAX_DIGITS = 1000         # digits of a number literal written out without exponent

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<sym>[-+*/^()\[\],'=:]))"
)


def _tokenize(body: str, line: int) -> list:
    """Tokens of one source line as ``(kind, text, (line, col))``."""
    tokens = []
    pos = 0
    while m := _TOKEN_RE.match(body, pos):
        kind = m.lastgroup
        text, where = m.group(kind), (line, m.start(kind) + 1)
        if kind == "number":
            mantissa, _, exp = text.lower().partition("e")
            digits = len(mantissa.replace(".", ""))
            if max(digits, len(exp)) > MAX_DIGITS or digits + abs(int(exp or 0)) > MAX_DIGITS:
                raise ParseError(f"number exceeds {MAX_DIGITS} digits", *where)
        tokens.append((kind, text, where))
        pos = m.end()
    rest = body[pos:].lstrip()
    if rest:
        raise ParseError(f"unexpected character {rest[0]!r}", line, len(body) - len(rest) + 1)
    return tokens


class _Parser:
    """Recursive descent over one statement's tokens, from index ``start``.

    Expressions become polynomials over ``algebra``.  A ``scalar`` statement
    (a param or theta) names no mode: each generator in it stands for a1 of
    the one-mode scratch algebra and sets ``nonscalar``.
    """

    def __init__(self, tokens, start, algebra, params, scalar=False):
        self.toks = tokens
        self.idx = start
        self.alg = algebra
        self.params = params
        self.scalar = scalar
        self.nonscalar = False
        self.depth = 0

    def peek(self):
        return self.toks[self.idx] if self.idx < len(self.toks) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            _, text, (line, col) = self.toks[-1] if self.toks else ("", "", (0, 1))
            raise ParseError("unexpected end of expression", line, col + len(text))
        self.idx += 1
        return tok

    def accept(self, *syms):
        """The next token, consumed, when it is one of the symbols ``syms``."""
        tok = self.peek()
        if tok and tok[0] == "sym" and tok[1] in syms:
            self.idx += 1
            return tok
        return None

    def expect(self, sym: str):
        tok = self.next()
        if tok[1] != sym:
            raise ParseError(f"expected {sym!r}, found {tok[1]!r}", *tok[2])

    def end(self, value):
        """``value``, once no token is left in the statement."""
        tok = self.peek()
        if tok:
            raise ParseError(f"unexpected {tok[1]!r}", *tok[2])
        return value

    def parse(self) -> OperatorPolynomial:
        """The rest of the statement, as one expression."""
        return self.end(self.expr())

    def count(self, what: str) -> int:
        """The rest of the statement, as a positive integer up to MAX_MODES."""
        rest = self.toks[self.idx:]
        if len(rest) != 1 or not rest[0][1].isdigit() or int(rest[0][1]) < 1:
            raise ParseError(f"{what} must be a positive integer", self.toks[0][2][0], 1)
        if int(rest[0][1]) > MAX_MODES:
            raise ParseError(f"{what} exceeds {MAX_MODES}", *rest[0][2])
        return int(rest[0][1])

    def bracketed(self, item):
        """``[item, item, ...]``: the items."""
        self.expect("[")
        items = []
        while True:
            items.append(item())
            tok = self.next()
            if tok[1] == "]":
                return items
            if tok[1] != ",":
                raise ParseError(f"expected ',' or ']', found {tok[1]!r}", *tok[2])

    def matrix(self):
        """The rest of the statement, a ``[[...], ...]`` literal: its rows of
        polynomials."""
        rows = self.end(self.bracketed(lambda: self.bracketed(self.expr)))
        if any(len(r) != len(rows[0]) for r in rows):
            raise ParseError("ragged matrix literal", self.toks[0][2][0], 1)
        return rows

    def expr(self) -> OperatorPolynomial:
        acc = self.term()
        while tok := self.accept("+", "-"):
            rhs = self.term()
            acc = self.arith(tok, lambda: acc + rhs if tok[1] == "+" else acc - rhs)
        return acc

    def term(self) -> OperatorPolynomial:
        acc = self.factor()
        while True:
            tok = self.accept("*", "/")
            if tok is None:
                nxt = self.peek()
                if nxt and nxt[0] != "sym":
                    raise ParseError("juxtaposition is not multiplication; use '*'", *nxt[2])
                return acc
            rhs = self.factor()
            if tok[1] == "*":
                acc = self.product(tok, acc, rhs)
            elif not rhs.is_constant:
                raise ParseError("division by a non-constant operator", *tok[2])
            else:
                acc = self.arith(tok, lambda: acc.scale(ONE / rhs.constant_value()))

    def factor(self) -> OperatorPolynomial:
        # unary signs bind looser than '^', so -a1^2 means -(a1^2)
        negate = False
        while sign := self.accept("+", "-"):
            negate ^= sign[1] == "-"
        base = self.primary()
        while self.accept("^"):
            tok = self.next()
            if not tok[1].isdigit() or int(tok[1]) < 1:
                raise ParseError("exponent must be a positive integer", *tok[2])
            k = int(tok[1])
            if k > MAX_EXPONENT:
                raise ParseError(f"exponent exceeds {MAX_EXPONENT}", *tok[2])
            if base.max_degree * k > MAX_DEGREE:
                raise ParseError(f"degree exceeds {MAX_DEGREE}", *tok[2])
            power = self.alg.one()
            for _ in range(k):
                power = self.product(tok, power, base)
            base = power
        return -base if negate else base

    def primary(self) -> OperatorPolynomial:
        tok = self.next()
        kind, text, pos = tok
        if kind == "number":
            return self.alg.scalar(Scalar(int(text) if text.isdigit() else Fraction(text)))
        if text in ("(", "sqrt"):
            if text == "sqrt":
                self.expect("(")
            if self.depth == MAX_NESTING:
                raise ParseError(f"brackets nested deeper than {MAX_NESTING}", *pos)
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.expect(")")
            if text == "(":
                return inner
            if not inner.is_constant:
                raise ParseError("sqrt of a non-scalar expression", *pos)
            return self.arith(tok, lambda: self.alg.scalar(inner.constant_value().sqrt()))
        if kind == "sym":
            raise ParseError(f"unexpected {text!r}", *pos)
        if text == "i":
            return self.alg.scalar(Scalar(0, 1))
        if text[0] == "a" and text[1:].isdigit():
            mode = int(text[1:])
            if self.scalar:
                self.nonscalar = True
                mode = 1
            elif not 1 <= mode <= self.alg.modes:
                raise ParseError(f"unknown mode a{mode}; model has {self.alg.modes} modes", *pos)
            if self.accept("'"):
                return self.alg.creator(mode)
            return self.alg.annihilator(mode)
        if text in self.params:
            return self.alg.scalar(self.params[text])
        raise ParseError(f"unknown parameter {text!r}", *pos)

    def product(self, tok, lhs, rhs) -> OperatorPolynomial:
        """lhs * rhs, refused at ``tok`` when it would exceed a bound."""
        if lhs.max_degree + rhs.max_degree > MAX_DEGREE:
            raise ParseError(f"degree exceeds {MAX_DEGREE}", *tok[2])
        if len(lhs.terms) * len(rhs.terms) > MAX_TERM_PAIRS:
            raise ParseError(f"product exceeds {MAX_TERM_PAIRS} term pairs", *tok[2])
        return self.arith(tok, lambda: lhs * rhs)

    def arith(self, tok, step):
        """``step()``, the arithmetic of the operator ``tok``, refused there
        when it divides by zero or leaves the binary64 range."""
        try:
            value = step()
            if all(c.den is not None or isfinite(c.re_num) and isfinite(c.im_num)
                   for c in value.terms.values()):
                return value
        except ZeroDivisionError:
            raise ParseError("division by zero", *tok[2]) from None
        except OverflowError:
            pass
        raise ParseError("number too large for binary64", *tok[2])


def parse_expression(text: str, algebra: Algebra,
                     params: dict | None = None) -> OperatorPolynomial:
    return _Parser(_tokenize(text, 0), 0, algebra, params or {}).parse()


def _statements(text: str):
    """(source, tokens) of each statement: the tokens of a line, continued
    over the following lines while a bracket is open."""
    source, tokens, depth = [], [], 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        line_tokens = _tokenize(body, lineno)
        if not line_tokens:
            continue
        source.append(body.strip())
        tokens += line_tokens
        texts = [tok[1] for tok in line_tokens]
        depth += texts.count("(") + texts.count("[") - texts.count(")") - texts.count("]")
        if depth <= 0:
            yield " ".join(source), tokens
            source, tokens, depth = [], [], 0
    if tokens:
        yield " ".join(source), tokens


def parse_model(text: str, tol: float = DEFAULT_TOL) -> QsdeModel:
    """Parse and fully bind a model; raises ParseError on any defect."""
    n = m = None
    theta = None  # (line, rows, nonscalar) of a theta literal; None is the identity
    params: dict = {}
    entries = {"A": {}, "C": {}}
    literals = {"D": "identity"}  # B and D: "identity" or (line, rows)
    phi = None
    algebra = None
    scratch = Algebra(1, tol=tol)  # params and theta name no mode

    def require_algebra(lineno):
        nonlocal algebra
        if algebra is None:
            if n is None or m is None:
                raise ParseError("modes and channels must be declared first", lineno, 1)
            grid_theta = CommutationMatrix.identity(n)
            if theta is not None:
                line, rows, nonscalar = theta
                if nonscalar or not all(e.is_constant for r in rows for e in r):
                    raise ParseError("theta entries must be scalars", line, 1)
                if len(rows) != n or any(len(r) != n for r in rows):
                    raise ParseError(f"theta must be {n}x{n}", line, 1)
                grid_theta = CommutationMatrix([[e.constant_value() for e in r] for r in rows])
                if not grid_is_hermitian(grid_theta.theta, tol):
                    raise ParseError("theta must be Hermitian", line, 1)
            algebra = Algebra(n, grid_theta, tol=tol)
        return algebra

    for source, toks in _statements(text):
        lineno = toks[0][2][0]
        identity = len(toks) == 3 and toks[2][1] == "identity"
        match [tok[1] for tok in toks[:5]]:
            case ["modes", ":", *_]:
                n = _Parser(toks, 2, scratch, params).count("modes")
            case ["channels", ":", *_]:
                m = _Parser(toks, 2, scratch, params).count("channels")
            case ["theta", ":", *_]:
                theta = None
                if not identity:
                    parser = _Parser(toks, 2, scratch, params, scalar=True)
                    theta = (lineno, parser.matrix(), parser.nonscalar)
            case ["param", name, "=", *_] if toks[1][0] == "name":
                parser = _Parser(toks, 3, scratch, params, scalar=True)
                value = parser.parse()
                if parser.nonscalar or not value.is_constant:
                    raise ParseError(f"parameter {name!r} is not a scalar", lineno, 1)
                params[name] = value.constant_value()
            case ["A" | "C" as which, "[", index, "]", "="] if index.isdigit():
                alg = require_algebra(lineno)
                idx, limit = int(index), n if which == "A" else m
                if not 1 <= idx <= limit:
                    raise ParseError(f"{which}[{idx}] out of range 1..{limit}", lineno, 1)
                if idx in entries[which]:
                    raise ParseError(f"duplicate {which}[{idx}]", lineno, 1)
                entries[which][idx] = _Parser(toks, 5, alg, params).parse()
            case ["B" | "D" as which, "=", *_]:
                alg = require_algebra(lineno)
                if identity and which == "B":
                    raise ParseError("B must be a matrix literal", lineno, 1)
                literals[which] = "identity" if identity else (
                    lineno, _Parser(toks, 2, alg, params).matrix())
            case ["phi", "=", *_]:
                phi = _Parser(toks, 2, require_algebra(lineno), params).parse()
            case _:
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
        return OperatorMatrix(alg, rows, cols, [e for r in values for e in r])

    B = literal("B", n, m)
    D = literal("D", m, m)
    A = OperatorMatrix.column(alg, [entries["A"][i] for i in range(1, n + 1)])
    C = OperatorMatrix.column(alg, [entries["C"][v] for v in range(1, m + 1)])
    return QsdeModel(algebra=alg, n=n, m=m, A=A, B=B, C=C, D=D,
                     params=params, phi=phi)


# -- rendering ----------------------------------------------------------------

def render_model(model: QsdeModel) -> str:
    """Canonical text form; parse(render(parse(x))) equals parse(x)."""

    def rows(grid_rows, fmt):
        return "[" + ", ".join("[" + ", ".join(fmt(x) for x in row) + "]"
                               for row in grid_rows) + "]"

    def expr(p):
        return render(p, parsable=True)

    def matrix(mat):
        return rows((mat.row(i) for i in range(mat.rows)), expr)

    lines = [f"modes: {model.n}", f"channels: {model.m}"]
    if model.theta.is_identity:
        lines.append("theta: identity")
    else:
        theta = rows(model.theta.theta, lambda x: format_scalar(x, parsable=True))
        lines.append(f"theta: {theta}")
    lines += [f"A[{i + 1}] = {expr(model.A.entry(i, 0))}" for i in range(model.n)]
    lines.append(f"B = {matrix(model.B)}")
    lines += [f"C[{v + 1}] = {expr(model.C.entry(v, 0))}" for v in range(model.m)]
    if model.D == OperatorMatrix.identity(model.algebra, model.m):
        lines.append("D = identity")
    else:
        lines.append(f"D = {matrix(model.D)}")
    if model.phi is not None:
        lines.append(f"phi = {expr(model.phi)}")
    return "\n".join(lines) + "\n"
