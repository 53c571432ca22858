"""The model parser as it stood before constants were folded in scalar arithmetic.

A frozen copy, kept as a reference the way ``reference_kernel`` keeps the
polynomial kernel: the per-line tokenizer, the bracket-continued statements,
the recursive-descent ``_Parser`` that lifts every number and parameter to a
one-term polynomial, and ``parse_model``.  It builds the package's
``QsdeModel`` and raises the package's ``ParseError``, so a model or an error
text from it compares directly with one from ``qrealize.model.parse_model``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isfinite

from qrealize.algebra import Algebra, CommutationMatrix, OperatorPolynomial
from qrealize.matrices import OperatorMatrix
from qrealize.model import ParseError, QsdeModel
from qrealize.scalars import DEFAULT_TOL, ONE, Scalar, grid_is_hermitian

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
    declared = set()

    def declare(toks):
        """Refuses a header once the algebra is bound (by the first A, B, C, D
        or phi statement), and a second statement of the same keyword."""
        _, key, where = toks[0]
        header = key in ("modes", "channels", "theta")
        if header and algebra is not None:
            raise ParseError(f"{key!r} must be declared before A, B, C, D and phi", *where)
        if key in declared:
            raise ParseError(f"duplicate {key!r} declaration" if header
                             else f"duplicate {key}", *where)
        declared.add(key)

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
                try:
                    grid_theta.inverse()  # cached for the checks
                except ValueError:
                    raise ParseError("theta must be invertible", line, 1) from None
            algebra = Algebra(n, grid_theta, tol=tol)
        return algebra

    for source, toks in _statements(text):
        lineno = toks[0][2][0]
        identity = len(toks) == 3 and toks[2][1] == "identity"
        match [tok[1] for tok in toks[:5]]:
            case ["modes", ":", *_]:
                declare(toks)
                n = _Parser(toks, 2, scratch, params).count("modes")
            case ["channels", ":", *_]:
                declare(toks)
                m = _Parser(toks, 2, scratch, params).count("channels")
            case ["theta", ":", *_]:
                declare(toks)
                if not identity:
                    parser = _Parser(toks, 2, scratch, params, scalar=True)
                    theta = (lineno, parser.matrix(), parser.nonscalar)
            case ["param", name, "=", *_] if toks[1][0] == "name":
                if name in params:
                    raise ParseError(f"duplicate parameter {name!r}", *toks[1][2])
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
                declare(toks)
                alg = require_algebra(lineno)
                if identity and which == "B":
                    raise ParseError("B must be a matrix literal", lineno, 1)
                literals[which] = "identity" if identity else (
                    lineno, _Parser(toks, 2, alg, params).matrix())
            case ["phi", "=", *_]:
                declare(toks)
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
