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
"""

from .algebra.fields import GF
from .algebra.polys import BiPoly
from .errors import (AlgSeriesError, NegativeExponent, ParseError,
                     UnknownSymbol, ZeroDenominator)

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
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append((_INT, int(text[i:j]), i))
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


class ExprAst:
    """Expression tree node: ('int', v) | ('var', name) | ('neg', e) |
    ('add'|'sub'|'mul', l, r) | ('pow', e, k) | ('div', e, k)."""

    __slots__ = ("kind", "args")

    def __init__(self, kind, *args):
        self.kind = kind
        self.args = args

    def __repr__(self):
        return f"({self.kind} {' '.join(map(repr, self.args))})"


class _Parser:
    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self):
        kind, val, off = self.peek()
        negate = False
        if kind == _OP and val == "-":
            self.advance()
            negate = True
        node = self.term()
        if negate:
            node = ExprAst("neg", node)
        while True:
            kind, val, off = self.peek()
            if kind == _OP and val in "+-":
                self.advance()
                rhs = self.term()
                node = ExprAst("add" if val == "+" else "sub", node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, off = self.peek()
            if kind == _OP and val == "*":
                self.advance()
                node = ExprAst("mul", node, self.factor())
            elif kind == _OP and val == "/":
                self.advance()
                kind, val, off = self.advance()
                if kind != _INT:
                    raise ParseError("expected an integer divisor after '/'", off)
                node = ExprAst("div", node, val)
            elif kind in (_INT, _VAR) or (kind == _OP and val == "("):
                node = ExprAst("mul", node, self.factor())
            else:
                return node

    def factor(self):
        node = self.base()
        kind, val, off = self.peek()
        if kind == _OP and val == "^":
            self.advance()
            kind, val, off = self.peek()
            if kind == _OP and val == "-":
                raise NegativeExponent("exponents must be nonnegative", off)
            if kind != _INT:
                raise ParseError("expected an integer exponent after '^'", off)
            self.advance()
            node = ExprAst("pow", node, val)
        return node

    def base(self):
        kind, val, off = self.advance()
        if kind == _INT:
            return ExprAst("int", val)
        if kind == _VAR:
            if val not in self.variables:
                raise UnknownSymbol(f"unknown symbol {val!r}", off)
            return ExprAst("var", val)
        if kind == _OP and val == "(":
            node = self.expr()
            kind, val, off = self.advance()
            if kind != _OP or val != ")":
                raise ParseError("expected ')'", off)
            return node
        raise ParseError("expected a number, variable or '('", off)


def parse_expr_ast(text, variables=("X", "Y")):
    """Parse to an ExprAst without evaluating; raises ParseError family."""
    parser = _Parser(_tokenize(text), variables)
    node = parser.expr()
    kind, val, off = parser.peek()
    if kind != _END:
        raise ParseError(f"unexpected {val!r}", off)
    return node


def _eval_ast(node, field, varmap):
    kind = node.kind
    if kind == "int":
        return BiPoly.constant(field, field.from_int(node.args[0]))
    if kind == "var":
        return varmap[node.args[0]]
    if kind == "neg":
        return -_eval_ast(node.args[0], field, varmap)
    if kind == "add":
        return _eval_ast(node.args[0], field, varmap) + _eval_ast(node.args[1], field, varmap)
    if kind == "sub":
        return _eval_ast(node.args[0], field, varmap) - _eval_ast(node.args[1], field, varmap)
    if kind == "mul":
        return _eval_ast(node.args[0], field, varmap) * _eval_ast(node.args[1], field, varmap)
    if kind == "pow":
        return _eval_ast(node.args[0], field, varmap) ** node.args[1]
    if kind == "div":
        divisor = field.from_int(node.args[1])
        if not divisor:
            raise ZeroDenominator(f"division by {node.args[1]}, which is zero "
                                  "in the field")
        return _eval_ast(node.args[0], field, varmap).scale(field.inv(divisor))
    raise AssertionError(f"unhandled node {kind}")


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
    node = parse_expr_ast(text, tuple(varmap))
    return _eval_ast(node, field, varmap)


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
