"""Text form of polynomials: a small grammar and a canonical printer.

Grammar (whitespace between tokens is ignored):

    expr     := ['-'] term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := atom ('^' nat)?
    atom     := rational | variable | '(' expr ')'
    rational := nat ('/' nat)?
    nat      := [0-9]+
    variable := [A-Za-z_][A-Za-z0-9_]*

Multiplication is always explicit ('2*x', never '2x').  Unary minus is
permitted only at the head of an expression, which includes the position
right after '('.  Exponents and literal denominators are natural numbers.

print_canonical writes terms in descending graded-lex order with
variables in ring order, so parse(print(p)) == p exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ExponentOverflowError, ParseError
from .poly import EXPONENT_CAP, Polynomial, Ring, _check_exponent, _Record

_SYMBOLS = set("+-*^/()")

# CPython refuses int <-> decimal string conversions past a digit limit
# (4300 digits by default, 640 at the least).  The limit is global to the
# interpreter, so long numbers are converted in pieces below it instead.
_SAFE_DIGITS = 600


def _decimal(n: int) -> str:
    """The decimal digits of n, at any length."""
    if n < 0:
        return "-" + _decimal(-n)
    if n.bit_length() <= 1990:  # below 10^600
        return str(n)
    k = n.bit_length() * 3 // 20  # about half of n's digits
    high, low = divmod(n, 10**k)
    return _decimal(high) + _decimal(low).zfill(k)


def _integer(digits: str) -> int:
    """The value of a string of decimal digits, at any length."""
    if len(digits) <= _SAFE_DIGITS:
        return int(digits)
    k = len(digits) // 2
    return _integer(digits[:-k]) * 10**k + _integer(digits[-k:])


def _rational_text(q: Fraction) -> str:
    """str(q), also past the interpreter's int-to-str digit limit."""
    if q.denominator == 1:
        return _decimal(q.numerator)
    return f"{_decimal(q.numerator)}/{_decimal(q.denominator)}"


class _Token(_Record):
    _fields = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        # kind: "num" | "name" | one of _SYMBOLS | "end"
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "pos", pos)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if "0" <= c <= "9":  # ASCII digits only, as the grammar says
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(_Token("num", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], i))
            i = j
            continue
        if c in _SYMBOLS:
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], ring: Ring):
        self.tokens = tokens
        self.k = 0
        self.ring = ring

    def peek(self) -> _Token:
        return self.tokens[self.k]

    def take(self) -> _Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.take()

    def parse(self) -> Polynomial:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.pos)
        return value

    def expr(self) -> Polynomial:
        negate = False
        if self.peek().kind == "-":
            self.take()
            negate = True
        value = self.term()
        if negate:
            value = -value
        while self.peek().kind in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = value + rhs if op.kind == "+" else value - rhs
        return value

    def term(self) -> Polynomial:
        value = self.factor()
        while self.peek().kind == "*":
            self.take()
            value = value * self.factor()
        return value

    def factor(self) -> Polynomial:
        value = self.atom()
        if self.peek().kind == "^":
            self.take()
            digits = self.expect("num").text.lstrip("0") or "0"
            # count digits first: int() refuses very long literals
            if len(digits) > len(str(EXPONENT_CAP)):
                raise ExponentOverflowError(
                    f"exponent of {len(digits)} digits exceeds cap {EXPONENT_CAP}"
                )
            exponent = int(digits)
            _check_exponent(exponent)
            value = value**exponent
        return value

    def atom(self) -> Polynomial:
        tok = self.peek()
        if tok.kind == "num":
            self.take()
            numerator = _integer(tok.text)
            if self.peek().kind == "/":
                self.take()
                den_tok = self.expect("num")
                denominator = _integer(den_tok.text)
                if denominator == 0:
                    raise ParseError("zero denominator", den_tok.pos)
                return self.ring.const(Fraction(numerator, denominator))
            return self.ring.const(numerator)
        if tok.kind == "name":
            self.take()
            if tok.text not in self.ring.variables:
                raise ParseError(f"unknown variable {tok.text!r}", tok.pos)
            return self.ring.var(tok.text)
        if tok.kind == "(":
            self.take()
            value = self.expr()
            self.expect(")")
            return value
        raise ParseError(
            f"expected a number, variable, or '(', found {tok.text or 'end of input'!r}",
            tok.pos,
        )


def parse_polynomial(text: str, ring: Ring) -> Polynomial:
    """Parse text into a polynomial of the given ring.

    Raises ParseError on grammar violations and on nesting deeper than
    the interpreter's recursion limit allows (the error carries the
    0-based character position), and ExponentOverflowError when a
    literal exponent exceeds poly.EXPONENT_CAP.
    """
    parser = _Parser(_tokenize(text), ring)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.peek().pos) from None


def _term_text(mono: tuple[int, ...], magnitude: Fraction, variables: tuple[str, ...]) -> str:
    factors: list[str] = []
    if magnitude != 1 or not any(mono):
        factors.append(_rational_text(magnitude))
    for name, e in zip(variables, mono):
        if e == 0:
            continue
        factors.append(name if e == 1 else f"{name}^{e}")
    return "*".join(factors)


def print_canonical(p: Polynomial, *, ascending: bool = False) -> str:
    """Render a polynomial in canonical text form.

    Terms appear in graded-lex order, descending by default, with
    variables in ring order inside each term.  The output parses back to
    an equal polynomial.
    """
    terms = p.terms()
    if not terms:
        return "0"
    if ascending:
        terms = terms[::-1]
    pieces: list[str] = []
    for i, (mono, coeff) in enumerate(terms):
        negative = coeff < 0
        body = _term_text(mono, -coeff if negative else coeff, p.ring.variables)
        if i == 0:
            pieces.append(("-" if negative else "") + body)
        else:
            pieces.append((" - " if negative else " + ") + body)
    return "".join(pieces)
