"""Model data type, text-format parser/renderer and doubled-up construction.

The model format is line-oriented (``#`` starts a comment):

    modes: 2
    channels: 2
    theta: identity            # or [[1,0],[0,1]]
    param k1 = 2
    A[1] = -k1*a1 + 2*a1'*a2^2
    B = [[-sqrt(2*k1), 0], [0, -sqrt(2*k2)]]
    C[1] = sqrt(2*k1)*a1
    D = identity
    phi = 2*a1'*a1 + 2*a2'*a2  # optional storage function

Operator expressions use generators ``a1``, ``a1'`` (prime = dagger),
explicit ``*`` for products, ``^`` for positive integer powers, ``i`` for
the imaginary unit and ``sqrt(...)`` of scalar subexpressions.  Parameter
values are evaluated once, at parse time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import Algebra, CommutationMatrix, OperatorPolynomial, format_scalar, render
from .matrices import OperatorMatrix
from .scalars import (
    DEFAULT_TOL,
    ONE,
    Scalar,
    block_diag,
    grid,
    grid_neg,
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
    J: tuple                    # diag(theta, -theta*), the graded CCR matrix
    theta_bar_printed: tuple    # diag(theta, theta*)
    Ibar: tuple                 # diag(I_m, -I_m)
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
    return block_diag(identity_grid(m), grid_neg(identity_grid(m)))


def doubled_generators(alg: Algebra) -> OperatorMatrix:
    """abar = (a_1..a_n, a_1'..a_n') as a column."""
    n = alg.modes
    return OperatorMatrix.column(
        alg,
        [alg.annihilator(j) for j in range(1, n + 1)]
        + [alg.creator(j) for j in range(1, n + 1)],
    )


def double(model: QsdeModel) -> DoubledModel:
    """Build the doubled model: stacked generator, block dynamics matrices."""
    alg = model.algebra
    Abar = OperatorMatrix.column(alg, model.A.col(0) + [p.adjoint() for p in model.A.col(0)])
    Cbar = OperatorMatrix.column(alg, model.C.col(0) + [p.adjoint() for p in model.C.col(0)])
    Bbar = _block_diag_op(model.B, model.B.conj())
    Dbar = _block_diag_op(model.D, model.D.conj())
    nbar = None if model.A.is_zero else compute_nbar(model)
    return DoubledModel(
        algebra=alg,
        n=model.n,
        m=model.m,
        abar=doubled_generators(alg),
        Abar=Abar,
        Bbar=Bbar,
        Cbar=Cbar,
        Dbar=Dbar,
        J=alg.theta.graded(),
        theta_bar_printed=alg.theta.doubled_printed(),
        Ibar=sign_grid(model.m),
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


# -- expression parsing -------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<sym>[-+*/^()\[\],'=:]))"
)

_GEN_RE = re.compile(r"^a(\d+)$")


class _Tokens:
    """Tokens of ``text``, each with its source position (line, col).

    ``spans`` maps text to source lines: ``(start, line, col)`` puts
    ``text[start]`` at column ``col`` of ``line``, and the text after it
    follows on that line up to the next span.  A statement continued over
    several lines has one span per line."""

    def __init__(self, text: str, spans):
        self.text = text
        self.spans = spans
        self.line = spans[0][1]
        self.toks = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m or m.end() == pos:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                raise ParseError(f"unexpected character {stripped[0]!r}",
                                 *self.where(len(text) - len(stripped)))
            kind = m.lastgroup
            self.toks.append((kind, m.group(kind), self.where(m.start(kind))))
            pos = m.end()
        self.idx = 0

    def where(self, pos: int):
        """(line, col) of ``text[pos]``."""
        start, line, col = next(s for s in reversed(self.spans) if s[0] <= pos)
        return line, col + pos - start

    def peek(self):
        return self.toks[self.idx] if self.idx < len(self.toks) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", *self.where(len(self.text)))
        self.idx += 1
        return tok

    def expect_sym(self, sym: str):
        tok = self.next()
        if tok[0] != "sym" or tok[1] != sym:
            raise ParseError(f"expected {sym!r}, found {tok[1]!r}", *tok[2])
        return tok

    def at_end(self) -> bool:
        return self.idx >= len(self.toks)


class _ExprParser:
    """Recursive-descent parser producing operator polynomials."""

    def __init__(self, tokens: _Tokens, algebra: Algebra, params: dict):
        self.t = tokens
        self.alg = algebra
        self.params = params

    def parse(self) -> OperatorPolynomial:
        expr = self.expr()
        if not self.t.at_end():
            tok = self.t.peek()
            raise ParseError(f"unexpected {tok[1]!r}", *tok[2])
        return expr

    def expr(self) -> OperatorPolynomial:
        acc = self.term()
        while True:
            tok = self.t.peek()
            if tok and tok[0] == "sym" and tok[1] in "+-":
                self.t.next()
                rhs = self.term()
                acc = acc + rhs if tok[1] == "+" else acc - rhs
            else:
                return acc

    def term(self) -> OperatorPolynomial:
        acc = self.factor()
        while True:
            tok = self.t.peek()
            if tok and tok[0] == "sym" and tok[1] in "*/":
                self.t.next()
                rhs = self.factor()
                if tok[1] == "*":
                    acc = acc * rhs
                else:
                    if not rhs.is_constant:
                        raise ParseError("division by a non-constant operator",
                                         *tok[2])
                    try:
                        inverse = ONE / rhs.constant_value()
                    except ZeroDivisionError:
                        raise ParseError("division by zero", *tok[2]) from None
                    acc = acc.scale(inverse)
            elif tok and tok[0] in ("number", "name"):
                raise ParseError(
                    "juxtaposition is not multiplication; use '*'",
                    *tok[2],
                )
            else:
                return acc

    def factor(self) -> OperatorPolynomial:
        # unary signs bind looser than '^', so -a1^2 means -(a1^2)
        tok = self.t.peek()
        if tok and tok[0] == "sym" and tok[1] in "+-":
            self.t.next()
            inner = self.factor()
            return -inner if tok[1] == "-" else inner
        base = self.primary()
        while True:
            tok = self.t.peek()
            if tok and tok[0] == "sym" and tok[1] == "^":
                self.t.next()
                exp_tok = self.t.next()
                if exp_tok[0] != "number" or not exp_tok[1].isdigit():
                    raise ParseError("exponent must be a positive integer",
                                     *exp_tok[2])
                k = int(exp_tok[1])
                if k < 1:
                    raise ParseError("exponent must be a positive integer",
                                     *exp_tok[2])
                base = base**k
            else:
                return base

    def primary(self) -> OperatorPolynomial:
        tok = self.t.next()
        kind, text, pos = tok
        if kind == "number":
            return self.alg.scalar(Scalar(Fraction(text)))
        if kind == "sym" and text == "(":
            inner = self.expr()
            self.t.expect_sym(")")
            return inner
        if kind == "name":
            if text == "i":
                return self.alg.scalar(Scalar(0, 1))
            if text == "sqrt":
                self.t.expect_sym("(")
                inner = self.expr()
                self.t.expect_sym(")")
                if not inner.is_constant:
                    raise ParseError("sqrt of a non-scalar expression", *pos)
                return self.alg.scalar(inner.constant_value().sqrt())
            gen = _GEN_RE.match(text)
            if gen:
                mode = int(gen.group(1))
                if not 1 <= mode <= self.alg.modes:
                    raise ParseError(
                        f"unknown mode a{mode}; model has {self.alg.modes} modes",
                        *pos,
                    )
                nxt = self.t.peek()
                if nxt and nxt[0] == "sym" and nxt[1] == "'":
                    self.t.next()
                    return self.alg.creator(mode)
                return self.alg.annihilator(mode)
            if text in self.params:
                return self.alg.scalar(self.params[text])
            raise ParseError(f"unknown parameter {text!r}", *pos)
        raise ParseError(f"unexpected {text!r}", *pos)


def parse_expression(text: str, algebra: Algebra, params: dict | None = None,
                     line: int = 0, offset: int = 0) -> OperatorPolynomial:
    tokens = _Tokens(text, ((0, line, offset + 1),))
    return _ExprParser(tokens, algebra, params or {}).parse()


def _bracketed(tokens: _Tokens, item):
    """Parse ``[item, item, ...]``; return the items."""
    tokens.expect_sym("[")
    items = []
    while True:
        items.append(item())
        tok = tokens.next()
        if tok[0] == "sym" and tok[1] == "]":
            return items
        if tok[0] != "sym" or tok[1] != ",":
            raise ParseError(f"expected ',' or ']', found {tok[1]!r}", *tok[2])


def _parse_matrix_rows(tokens: _Tokens, algebra: Algebra, params: dict):
    entry = _ExprParser(tokens, algebra, params).expr
    rows = _bracketed(tokens, lambda: _bracketed(tokens, entry))
    if any(len(r) != len(rows[0]) for r in rows):
        raise ParseError("ragged matrix literal", tokens.line, 1)
    return rows


# -- model file parsing -------------------------------------------------------

_HEADER_RE = re.compile(r"^(modes|channels|theta)\s*:\s*(.*)$")
_PARAM_RE = re.compile(r"^param\s+([A-Za-z_][A-Za-z_0-9]*)\s*=\s*(.*)$")
_INDEXED_RE = re.compile(r"^([AC])\s*\[\s*(\d+)\s*\]\s*=\s*(.*)$")
_MATRIX_RE = re.compile(r"^([BD])\s*=\s*(.*)$")
_PHI_RE = re.compile(r"^phi\s*=\s*(.*)$")


def _logical_lines(text: str):
    """(spans, statement): comment-stripped lines, joined with one blank while
    brackets are unbalanced; ``spans`` gives the source position of each
    joined line's first character, as ``_Tokens`` reads it."""
    pending = ""
    spans = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].rstrip()
        if not body.strip() and not pending:
            continue
        if pending:
            pending += " "
        spans.append((len(pending), lineno, len(body) - len(body.lstrip()) + 1))
        pending += body.strip()
        depth = pending.count("[") + pending.count("(") \
            - pending.count("]") - pending.count(")")
        if depth > 0:
            continue
        if pending:
            yield tuple(spans), pending
        pending = ""
        spans = []
    if pending:
        yield tuple(spans), pending


def _tokens_from(statement: str, spans, start: int) -> _Tokens:
    """Tokens of ``statement[start:]``."""
    return _Tokens(statement[start:], tuple((s - start, ln, col) for s, ln, col in spans))


def parse_model(text: str, tol: float = DEFAULT_TOL) -> QsdeModel:
    """Parse and fully bind a model; raises ParseError on any defect."""
    n = m = None
    theta_spec = None
    theta_line = 0
    params: dict = {}
    a_entries: dict = {}
    c_entries: dict = {}
    b_rows = None
    d_rows = "identity"
    phi_src = None
    algebra = None

    def require_algebra(lineno):
        nonlocal algebra
        if algebra is None:
            if n is None or m is None:
                raise ParseError("modes and channels must be declared first", lineno, 1)
            if theta_spec is None or theta_spec == "identity":
                theta = CommutationMatrix.identity(n)
            else:
                rows = []
                for row in theta_spec:
                    scal_row = []
                    for e in row:
                        if not e.is_constant:
                            raise ParseError("theta entries must be scalars", theta_line, 1)
                        scal_row.append(e.constant_value())
                    rows.append(scal_row)
                if len(rows) != n or any(len(r) != n for r in rows):
                    raise ParseError(
                        f"theta must be {n}x{n}", theta_line, 1
                    )
                theta = CommutationMatrix(grid(rows))
            algebra = Algebra(n, theta, tol=tol)
        return algebra

    def expression(line, spans, start, alg):
        return _ExprParser(_tokens_from(line, spans, start), alg, params).parse()

    for spans, line in _logical_lines(text):
        lineno = spans[0][1]
        hm = _HEADER_RE.match(line)
        if hm:
            key, value = hm.group(1), hm.group(2).strip()
            if key == "modes":
                n = _parse_count(value, lineno, "modes")
            elif key == "channels":
                m = _parse_count(value, lineno, "channels")
            else:
                if value == "identity":
                    theta_spec = "identity"
                else:
                    tokens = _tokens_from(line, spans, hm.start(2))
                    # theta entries may not reference modes; parse over a
                    # 1-mode scratch algebra and demand constants later
                    theta_spec = _parse_matrix_rows(
                        tokens, Algebra(1, tol=tol), params
                    )
                theta_line = lineno
            continue
        pm = _PARAM_RE.match(line)
        if pm:
            name = pm.group(1)
            scratch = Algebra(1, tol=tol)
            value = expression(line, spans, pm.start(2), scratch)
            if not value.is_constant:
                raise ParseError(f"parameter {name!r} is not a scalar", lineno, 1)
            params[name] = value.constant_value()
            continue
        im = _INDEXED_RE.match(line)
        if im:
            alg = require_algebra(lineno)
            which, idx = im.group(1), int(im.group(2))
            limit = n if which == "A" else m
            if not 1 <= idx <= limit:
                raise ParseError(f"{which}[{idx}] out of range 1..{limit}", lineno, 1)
            target = a_entries if which == "A" else c_entries
            if idx in target:
                raise ParseError(f"duplicate {which}[{idx}]", lineno, 1)
            target[idx] = expression(line, spans, im.start(3), alg)
            continue
        mm = _MATRIX_RE.match(line)
        if mm:
            alg = require_algebra(lineno)
            which, value = mm.group(1), mm.group(2).strip()
            if value == "identity":
                rows = "identity"
            else:
                rows = _parse_matrix_rows(_tokens_from(line, spans, mm.start(2)),
                                          alg, params)
            if which == "B":
                if rows == "identity":
                    raise ParseError("B must be a matrix literal", lineno, 1)
                b_rows = (lineno, rows)
            else:
                d_rows = rows if rows == "identity" else (lineno, rows)
            continue
        fm = _PHI_RE.match(line)
        if fm:
            alg = require_algebra(lineno)
            phi_src = expression(line, spans, fm.start(1), alg)
            continue
        raise ParseError(f"unrecognized statement {line!r}", lineno, 1)

    if n is None:
        raise ParseError("missing 'modes:' declaration")
    if m is None:
        raise ParseError("missing 'channels:' declaration")
    alg = require_algebra(0)

    missing_a = [i for i in range(1, n + 1) if i not in a_entries]
    if missing_a:
        raise ParseError(f"missing drift entries A{missing_a}")
    missing_c = [v for v in range(1, m + 1) if v not in c_entries]
    if missing_c:
        raise ParseError(f"missing output entries C{missing_c}")
    if b_rows is None:
        raise ParseError("missing noise matrix B")

    b_line, rows = b_rows
    if len(rows) != n or any(len(r) != m for r in rows):
        raise ParseError(f"B must be {n}x{m}", b_line, 1)
    B = OperatorMatrix(alg, n, m, [e for row in rows for e in row])

    if d_rows == "identity":
        D = OperatorMatrix.identity(alg, m)
    else:
        d_line, rows = d_rows
        if len(rows) != m or any(len(r) != m for r in rows):
            raise ParseError(f"D must be {m}x{m}", d_line, 1)
        D = OperatorMatrix(alg, m, m, [e for row in rows for e in row])

    A = OperatorMatrix.column(alg, [a_entries[i] for i in range(1, n + 1)])
    C = OperatorMatrix.column(alg, [c_entries[v] for v in range(1, m + 1)])
    return QsdeModel(algebra=alg, n=n, m=m, A=A, B=B, C=C, D=D,
                     params=params, phi=phi_src)


def _parse_count(value: str, lineno: int, what: str) -> int:
    if not value.isdigit() or int(value) < 1:
        raise ParseError(f"{what} must be a positive integer", lineno, 1)
    return int(value)


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
