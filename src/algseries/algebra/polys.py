"""Sparse exact polynomials.

UniPoly stores a dense coefficient tuple (no trailing zeros, () is zero);
BiPoly stores a sparse (i, j) -> coefficient map with deterministic sorted
iteration so downstream output is byte-stable.
"""

from math import lcm
from operator import mul as _mul

from ..errors import AlgSeriesError
from .conv import combine, conv, divide, dot, scale, trim


def _term_text(field, coeff, mono):
    """One formatted term; ``mono`` like "X^2*Y" or "" for the constant."""
    if not mono:
        return field.fmt(coeff)
    if coeff == field.one:
        return mono
    cs = field.fmt(coeff)
    if "+" in cs:
        cs = f"({cs})"
    return f"{cs}*{mono}"


def power(one, base, n, mul=_mul):
    """base ** n by square and multiply, from ``one`` (a polynomial, or a
    raw field element for Field.pow); every product is ``mul(a, b)``, which
    cartier.numerator_images charges to a work budget."""
    if n < 0:
        raise AlgSeriesError(f"negative polynomial exponent {n}")
    result = one
    while n:
        if n & 1:
            result = mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return result


class UniPoly:
    """Univariate polynomial with exact coefficients over a field.

    ``coeffs`` is a tuple, constant term first, with a nonzero last entry;
    the zero polynomial is the empty tuple and has degree -1.  Instances are
    immutable.  The text of to_text() is in X.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = trim(tuple(coeffs))

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (field.one,))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def lead(self):
        if not self.coeffs:
            return self.field.zero
        return self.coeffs[-1]

    def __getitem__(self, n):
        if 0 <= n < len(self.coeffs):
            return self.coeffs[n]
        return self.field.zero

    def _same(self, other):
        if not isinstance(other, UniPoly) or other.field != self.field:
            raise AlgSeriesError("univariate arithmetic needs matching fields")
        return other

    def __add__(self, other):
        other = self._same(other)
        f = self.field
        return UniPoly(f, combine(f, self.coeffs, f.one, other.coeffs))

    def __sub__(self, other):
        other = self._same(other)
        f = self.field
        return UniPoly(f, combine(f, self.coeffs, f.neg(f.one), other.coeffs))

    def __neg__(self):
        return self.scale(self.field.neg(self.field.one))

    def __mul__(self, other):
        other = self._same(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        return UniPoly(f, conv(f, a, b, len(a) + len(b) - 2))

    @classmethod
    def dot(cls, field, pairs):
        """sum of a*b over the pairs (a, b), read back once (conv.dot)."""
        return cls(field, dot(field, [(a.coeffs, b.coeffs) for a, b in pairs]))

    def scale(self, c):
        f = self.field
        if not c:
            return UniPoly.zero(f)
        return UniPoly(f, scale(f, c, self.coeffs))

    def __pow__(self, n):
        return power(UniPoly.one(self.field), self, n)

    def divmod(self, other):
        """(quotient, remainder); the remainder is a - quot*b, one
        multiply-add below the divisor's degree."""
        quot = self // other
        f, b = self.field, other.coeffs
        rem = conv(f, scale(f, f.neg(f.one), quot.coeffs), b, len(b) - 2,
                   self.coeffs[:len(b) - 1])
        return quot, UniPoly(f, rem)

    def __floordiv__(self, other):
        """The quotient.  Reversed, it is the reversed dividend over the
        reversed divisor mod X^(dq+1), so it takes only their top dq+1
        coefficients."""
        other = self._same(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        a, b = self.coeffs, other.coeffs
        dq = len(a) - len(b)
        if dq < 0:
            return UniPoly.zero(f)
        top = slice(-1, -dq - 2, -1)  # the top dq + 1 coefficients, reversed
        return UniPoly(f, divide(f, a[top], b[top], dq)[::-1])

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self):
        if self.is_zero() or self.lead() == self.field.one:
            return self
        return self.scale(self.field.inv(self.lead()))

    def gcd(self, other):
        """Monic greatest common divisor via Euclid."""
        a, b = self, self._same(other)
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def evaluate(self, x):
        """Horner evaluation at a raw field value."""
        f = self.field
        acc = f.zero
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, x), c)
        return acc

    def subst_power(self, e):
        """Substitute X -> X^e (exponent spreading)."""
        if e == 1 or self.is_zero():
            return self
        out = [self.field.zero] * (self.degree * e + 1)
        out[::e] = self.coeffs
        return UniPoly(self.field, out)

    def __eq__(self, other):
        return (isinstance(other, UniPoly) and other.field == self.field
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def to_text(self):
        if not self.coeffs:
            return "0"
        field = self.field
        parts = []
        for n, c in enumerate(self.coeffs):
            if not c:
                continue
            mono = "" if n == 0 else ("X" if n == 1 else f"X^{n}")
            parts.append((_is_negative(field, c), _term_text(field, _abs(field, c), mono)))
        return _join_signed(parts)

    def __repr__(self):
        return self.to_text()


def _is_negative(field, c):
    return field.kind == "rationals" and c < 0


def _abs(field, c):
    return -c if _is_negative(field, c) else c


def _join_signed(parts):
    out = []
    for k, (neg, text) in enumerate(parts):
        if k == 0:
            out.append(f"-{text}" if neg else text)
        else:
            out.append(f" - {text}" if neg else f" + {text}")
    return "".join(out)


class BiPoly:
    """Bivariate polynomial as a sparse {(i, j): coefficient} map.

    No zero coefficients are stored; iteration via :meth:`items` is sorted
    by (i, j).  Instances are treated as immutable.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field, terms):
        self.field = field
        self.terms = {k: v for k, v in terms.items() if v}

    @classmethod
    def zero(cls, field):
        return cls(field, {})

    @classmethod
    def constant(cls, field, c):
        return cls(field, {(0, 0): c})

    @classmethod
    def one(cls, field):
        return cls.constant(field, field.one)

    @classmethod
    def y(cls, field):
        return cls(field, {(0, 1): field.one})

    def items(self):
        return sorted(self.terms.items())

    def is_zero(self):
        return not self.terms

    @property
    def deg_x(self):
        return max((i for i, _ in self.terms), default=-1)

    @property
    def deg_y(self):
        return max((j for _, j in self.terms), default=-1)

    @property
    def total_degree(self):
        return max((i + j for i, j in self.terms), default=-1)

    def _same(self, other):
        if not isinstance(other, BiPoly) or other.field != self.field:
            raise AlgSeriesError("bivariate arithmetic needs matching fields")
        return other

    def __add__(self, other):
        other = self._same(other)
        f = self.field
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = f.add(out.get(k, f.zero), v)
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return BiPoly(f, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        f = self.field
        return BiPoly(f, {k: f.neg(v) for k, v in self.terms.items()})

    def __mul__(self, other):
        other = self._same(other)
        f = self.field
        add, mul = f.add, f.mul
        out = {}
        for (i, j), v in self.terms.items():
            for (a, b), w in other.terms.items():
                key = (i + a, j + b)
                prev = out.get(key)
                out[key] = mul(v, w) if prev is None else add(prev, mul(v, w))
        return BiPoly(f, out)

    def scale(self, c):
        f = self.field
        if not c:
            return BiPoly.zero(f)
        return BiPoly(f, {k: f.mul(c, v) for k, v in self.terms.items()})

    def mul_monomial(self, a, b):
        return BiPoly(self.field, {(i + a, j + b): v for (i, j), v in self.terms.items()})

    def __pow__(self, n):
        """self ** n; over Q the power of D*self on ints, divided by D^n
        once per term, D the lcm of the denominators."""
        f, terms = self.field, self.terms
        rational = f.kind == "rationals"
        D = lcm(*(c.denominator for c in terms.values())) if rational else 1
        if D == 1:
            return power(BiPoly.one(f), self, n)
        base = BiPoly(f, {k: int(c * D) for k, c in terms.items()})
        scaled = power(BiPoly.one(f), base, n)
        unit = D ** n
        return BiPoly(f, {k: f.div(v, unit) for k, v in scaled.terms.items()})

    def eval_x(self, x):
        """Partial substitution X := x, giving a UniPoly in Y."""
        f = self.field
        out = {}
        for (i, j), v in self.terms.items():
            c = f.mul(v, f.pow(x, i)) if i else v
            if c:
                out[j] = f.add(out.get(j, f.zero), c)
        coeffs = [f.zero] * (max(out, default=-1) + 1)
        for j, c in out.items():
            coeffs[j] = c
        return UniPoly(f, coeffs)

    def y_slices(self):
        """Map j -> UniPoly in X with [X^i] = [X^i Y^j] self."""
        f = self.field
        rows = {}
        for (i, j), v in self.terms.items():
            rows.setdefault(j, {})[i] = v
        out = {}
        for j, row in rows.items():
            coeffs = [f.zero] * (max(row) + 1)
            for i, c in row.items():
                coeffs[i] = c
            out[j] = UniPoly(f, coeffs)
        return out

    def as_unipoly_x(self):
        if self.deg_y > 0:
            raise AlgSeriesError("polynomial involves Y")
        f = self.field
        coeffs = [f.zero] * (self.deg_x + 1)
        for (i, _), v in self.terms.items():
            coeffs[i] = v
        return UniPoly(f, coeffs)

    def __eq__(self, other):
        return (isinstance(other, BiPoly) and other.field == self.field
                and other.terms == self.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def to_text(self):
        if not self.terms:
            return "0"
        field = self.field
        parts = []
        for (i, j), c in sorted(self.terms.items(), key=lambda kv: (kv[0][0] + kv[0][1], -kv[0][0])):
            mono = []
            if i:
                mono.append("X" if i == 1 else f"X^{i}")
            if j:
                mono.append("Y" if j == 1 else f"Y^{j}")
            parts.append((_is_negative(field, c),
                          _term_text(field, _abs(field, c), "*".join(mono))))
        return _join_signed(parts)

    def __repr__(self):
        return self.to_text()


def substitute_xy(P):
    """X^a Y^b  |->  X^a Y^(a+b), i.e. P(X, Y) -> P(XY, Y)."""
    return BiPoly(P.field, {(a, a + b): c for (a, b), c in P.terms.items()})


def derivative_y(P):
    """Formal partial derivative in Y (in char p the factor j acts mod p)."""
    f = P.field
    out = {}
    for (a, b), c in P.terms.items():
        if b:
            v = f.mul(f.from_int(b), c)
            if v:
                out[(a, b - 1)] = v
    return BiPoly(f, out)
