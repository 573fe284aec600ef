"""Univariate rational functions over a field, a reference for the tests.

The toolkit works fraction-free over F_q[X]; the reference computations of
the tests (elimination over F_q(X), products in F_q(X)[Y]/(P)) use these
instead.  A RationalFn keeps num/den gcd-reduced with a monic denominator,
which makes equality of rational functions a structural comparison.
"""

from algseries import UniPoly
from algseries.errors import AlgSeriesError, ZeroDenominator


class RationalFn:
    """num/den over one variable with gcd(num, den) = 1 and den monic, so
    equality is structural."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        if den.is_zero():
            raise ZeroDenominator("denominator is zero")
        if num.is_zero():
            num, den = UniPoly.zero(num.field), UniPoly.one(num.field)
        else:
            g = num.gcd(den)
            if g.degree > 0:
                num, den = num // g, den // g
            lead = den.lead()
            if lead != den.field.one:
                inv = den.field.inv(lead)
                num, den = num.scale(inv), den.scale(inv)
        self.num = num
        self.den = den

    @property
    def field(self):
        return self.num.field

    @classmethod
    def from_poly(cls, poly):
        return cls(poly, UniPoly.one(poly.field))

    @classmethod
    def zero(cls, field):
        return cls(UniPoly.zero(field), UniPoly.one(field))

    @classmethod
    def one(cls, field):
        return cls(UniPoly.one(field), UniPoly.one(field))

    def is_zero(self):
        return self.num.is_zero()

    def _arith(self, other):
        if isinstance(other, UniPoly):
            other = RationalFn.from_poly(other)
        if not isinstance(other, RationalFn) or other.field != self.field:
            raise AlgSeriesError("rational arithmetic needs matching fields")
        return other

    def __add__(self, other):
        other = self._arith(other)
        return RationalFn(self.num * other.den + other.num * self.den,
                          self.den * other.den)

    def __sub__(self, other):
        other = self._arith(other)
        return RationalFn(self.num * other.den - other.num * self.den,
                          self.den * other.den)

    def __mul__(self, other):
        other = self._arith(other)
        return RationalFn(self.num * other.num, self.den * other.den)

    def inverse(self):
        if self.is_zero():
            raise ZeroDenominator("inverse of the zero rational function")
        return RationalFn(self.den, self.num)

    def key(self):
        return (self.num.coeffs, self.den.coeffs)

    def __eq__(self, other):
        return (isinstance(other, RationalFn) and other.field == self.field
                and other.key() == self.key())

    def is_one(self):
        return (self.num.degree == 0 and self.num.coeffs[0] == self.field.one
                and self.den.degree == 0)

    def to_text(self):
        num = self.num.to_text()
        if self.den.degree == 0:
            return num
        den = self.den.to_text()
        if " " in num or "+" in num:
            num = f"({num})"
        if " " in den or "+" in den or "*" in den or "^" in den:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self):
        return self.to_text()
