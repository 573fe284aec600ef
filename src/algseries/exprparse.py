"""Parse textual polynomial expressions.

Grammar (whitespace ignored, offsets refer to the input string):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor (('*' factor) | ('/' uint) | factor)*
                                                  -- juxtaposition multiplies
    factor := base ('^' uint)?
    base   := uint | VAR | '(' expr ')'

Integer literals reduce into the field (mod p in characteristic p, exact
rationals over Q), and so do quotients by an integer literal, as in the Q
coefficient "3/4*X"; over F_{p^k} the symbol t is the field generator, as in
ExtensionField.fmt.  Printing a parsed polynomial with BiPoly.to_text() or
UniPoly.to_text() and reparsing yields the identical canonical object.

Literals are ASCII digits; one longer than Python's int conversion allows
(sys.get_int_max_str_digits()) is a ParseError at its offset.  The parser
evaluates as it reads: each rule returns the BiPoly of its text, and no
tree is built.  The whole text is tokenized first, so a bad character is
reported before anything else; after that, errors come in reading order,
so an evaluation error before a syntax error is the one raised ("X/3 )"
over F3 raises ZeroDenominator, not ParseError).

Three bounds make such texts a ParseError rather than a crash or a hang:
parentheses nested deeper than Python's recursion limit allows (about 240
pairs); a power P^n, n >= 2, of a P with k >= 2 terms that may have
more than POWER_TERMS_LIMIT terms; and a product A*B (or A B) of two
factors of two or more terms each that may have more than
POWER_TERMS_LIMIT terms.  For a power that count is the smaller of the box
(n*deg_X P + 1)*(n*deg_Y P + 1) and the C(n + k - 1, k - 1) products of n
terms, checked before the power's first product; for a product it is the
smaller of the box (deg_X A + deg_X B + 1)*(deg_Y A + deg_Y B + 1) and
|A|*|B|, checked at the operator before multiplying, so P^511*P^511 fails
as P^1022 does.  Powers of a monomial and products with a monomial are not
bounded.
"""

from math import comb

from .algebra.fields import GF
from .algebra.polys import BiPoly
from .errors import (AlgSeriesError, NegativeExponent, ParseError,
                     UnknownSymbol, ZeroDenominator)

# Most terms a power of a polynomial with two or more terms, or a product
# of two such polynomials, may have.  Products are dict products, so the
# time grows with the square of the terms, and over Q with the size of the
# coefficients too: (1+X)^511 over F10007 took 0.1 s and (1/3+2/7*X)^511
# over Q 1.8 s (Python 3.11, shared 2-core machine), where (1+X)^99999999
# over F3 ran until killed.
POWER_TERMS_LIMIT = 512

_INT = "int"
_VAR = "var"
_OP = "op"
_END = "end"


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                raise ParseError(f"integer literal of {j - i} digits is too "
                                 "long", i) from None
            tokens.append((_INT, value, i))
            i = j
            continue
        if ch.isalpha():
            tokens.append((_VAR, ch, i))
            i += 1
            continue
        if ch in "+-*^()/":
            tokens.append((_OP, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append((_END, None, n))
    return tokens


class _Parser:
    """Recursive descent over the tokens; each rule returns the BiPoly of
    the text it read."""

    def __init__(self, tokens, field, varmap):
        self.tokens = tokens
        self.pos = 0
        self.field = field
        self.varmap = varmap

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self):
        kind, val, off = self.peek()
        negate = kind == _OP and val == "-"
        if negate:
            self.advance()
        poly = self.term()
        if negate:
            poly = -poly
        while True:
            kind, val, off = self.peek()
            if kind == _OP and val in "+-":
                self.advance()
                rhs = self.term()
                poly = poly + rhs if val == "+" else poly - rhs
            else:
                return poly

    def term(self):
        poly = self.factor()
        while True:
            kind, val, off = self.peek()
            if kind == _OP and val == "*":
                self.advance()
                poly = self.product(poly, off)
            elif kind == _OP and val == "/":
                self.advance()
                kind, val, off = self.advance()
                if kind != _INT:
                    raise ParseError("expected an integer divisor after '/'", off)
                divisor = self.field.from_int(val)
                if not divisor:
                    raise ZeroDenominator(f"division by {val}, which is zero "
                                          "in the field")
                poly = poly.scale(self.field.inv(divisor))
            elif kind in (_INT, _VAR) or (kind == _OP and val == "("):
                poly = self.product(poly, off)
            else:
                return poly

    def product(self, poly, off):
        """poly times the next factor.  When both have two or more terms and
        the product may have more than POWER_TERMS_LIMIT terms, ParseError
        at ``off``, the offset of the operator (of the factor, for
        juxtaposition)."""
        rhs = self.factor()
        if len(poly.terms) > 1 and len(rhs.terms) > 1:
            box = (poly.deg_x + rhs.deg_x + 1) * (poly.deg_y + rhs.deg_y + 1)
            if min(box, len(poly.terms) * len(rhs.terms)) > POWER_TERMS_LIMIT:
                raise ParseError("product may have more than POWER_TERMS_LIMIT"
                                 f" = {POWER_TERMS_LIMIT} terms", off)
        return poly * rhs

    def factor(self):
        poly = self.base()
        kind, val, off = self.peek()
        if kind == _OP and val == "^":
            self.advance()
            kind, val, off = self.peek()
            if kind == _OP and val == "-":
                raise NegativeExponent("exponents must be nonnegative", off)
            if kind != _INT:
                raise ParseError("expected an integer exponent after '^'", off)
            self.advance()
            k = len(poly.terms)
            if k > 1 and val > 1:
                # C(n + k - 1, k - 1) > POWER_TERMS_LIMIT for any larger n
                n = min(val, POWER_TERMS_LIMIT)
                terms = min((val * poly.deg_x + 1) * (val * poly.deg_y + 1),
                            comb(n + k - 1, k - 1))
                if terms > POWER_TERMS_LIMIT:
                    raise ParseError("power may have more than "
                                     f"POWER_TERMS_LIMIT = {POWER_TERMS_LIMIT}"
                                     " terms", off)
            poly = poly ** val
        return poly

    def base(self):
        kind, val, off = self.advance()
        if kind == _INT:
            return BiPoly.constant(self.field, self.field.from_int(val))
        if kind == _VAR:
            if val not in self.varmap:
                raise UnknownSymbol(f"unknown symbol {val!r}", off)
            return self.varmap[val]
        if kind == _OP and val == "(":
            poly = self.expr()
            kind, val, off = self.advance()
            if kind != _OP or val != ")":
                raise ParseError("expected ')'", off)
            return poly
        raise ParseError("expected a number, variable or '('", off)


def parse_poly(text, field, variables=("X", "Y")):
    """Parse a polynomial in the given variables into a BiPoly.

    The first variable maps to the X axis and the second (if any) to Y.
    Over an extension field F_p[t]/(m(t)) the symbol t denotes the field
    generator, so coefficients print and parse as in "(1+t)*X".
    """
    varmap = {}
    for axis, name in enumerate(variables[:2]):
        varmap[name] = BiPoly(field, {(1, 0) if axis == 0 else (0, 1): field.one})
    if field.kind == "extension" and "t" not in varmap:
        varmap["t"] = BiPoly.constant(field, field.from_literal([0, 1]))
    parser = _Parser(_tokenize(text), field, varmap)
    try:
        poly = parser.expr()
    except RecursionError:
        raise ParseError("parentheses nested too deeply",
                         parser.peek()[2]) from None
    kind, val, off = parser.peek()
    if kind != _END:
        raise ParseError(f"unexpected {val!r}", off)
    return poly


def parse_modulus(text, p, k):
    """Coefficients over F_p, constant term first, of a modulus text in t
    for an extension of degree k.

    The degree is read off the sparse parse, so a text such as t^20000000
    fails at once instead of after a list of all its coefficients is built.
    A prime field (k = 1) takes no modulus.
    """
    poly = parse_poly(text, GF(p), ("t",))
    if k == 1:
        raise AlgSeriesError("prime fields take no modulus")
    if poly.deg_x != k:
        raise AlgSeriesError(f"modulus must have degree {k}")
    return poly.as_unipoly_x().coeffs
