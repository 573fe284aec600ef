"""Truncated formal power series, univariate and bivariate.

TruncSeries1 holds c_0..c_N for a fixed truncation order N; TruncSeries2
holds a sparse total-degree-T truncation.  Arithmetic results carry the
minimum of the operand orders.  TruncSeries1 products go through the dense
kernel conv (Kronecker substitution over finite fields), and the inverse is
a Newton iteration on top of it, so both cost O(M(N)) for the cost M(N) of
one product at order N.  series_expand_ratio expands num/den by the
linear recurrence S[i,j] = (num[i,j] - sum den[a,b]*S[i-a,j-b]) / den[0,0],
and diagonal_series reads the diagonal off such an expansion.
"""

from ..errors import AlgSeriesError, InsufficientPrecision, ZeroConstantTerm
from .conv import conv


class TruncSeries1:
    """Power series truncated at order N: coefficients c_0..c_N."""

    __slots__ = ("field", "coeffs", "order")

    def __init__(self, field, coeffs, order=None):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise AlgSeriesError("truncation order must be >= 0")
        coeffs += [field.zero] * (order + 1 - len(coeffs))
        self.field = field
        self.coeffs = tuple(coeffs[:order + 1])
        self.order = order

    @classmethod
    def zeros(cls, field, order):
        return cls(field, (), order)

    def __getitem__(self, n):
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def is_zero(self):
        return not any(self.coeffs)

    def prefix(self, order):
        if order > self.order:
            raise InsufficientPrecision(
                f"series has order {self.order}, need {order}")
        return TruncSeries1(self.field, self.coeffs[:order + 1], order)

    def _same(self, other):
        if not isinstance(other, TruncSeries1) or other.field != self.field:
            raise AlgSeriesError("series arithmetic needs matching fields")
        return other

    def __add__(self, other):
        other = self._same(other)
        f = self.field
        n = min(self.order, other.order)
        return TruncSeries1(
            f, [f.add(a, b) for a, b in zip(self.coeffs, other.coeffs)], n)

    def __sub__(self, other):
        other = self._same(other)
        f = self.field
        n = min(self.order, other.order)
        return TruncSeries1(
            f, [f.sub(a, b) for a, b in zip(self.coeffs, other.coeffs)], n)

    def __neg__(self):
        f = self.field
        return TruncSeries1(f, [f.neg(c) for c in self.coeffs], self.order)

    def __mul__(self, other):
        other = self._same(other)
        n = min(self.order, other.order)
        return TruncSeries1(self.field,
                            conv(self.field, self.coeffs, other.coeffs, n), n)

    def scale(self, c):
        f = self.field
        return TruncSeries1(f, [f.mul(c, x) for x in self.coeffs], self.order)

    def shift(self, k):
        """Multiply by X^k, keeping the truncation order."""
        f = self.field
        if k > self.order:
            return TruncSeries1.zeros(f, self.order)
        return TruncSeries1(f, (f.zero,) * k + self.coeffs[:self.order + 1 - k],
                            self.order)

    def inverse(self):
        """Multiplicative inverse; needs an invertible constant term.

        Newton iteration g <- g - g*(a*g - 1), doubling the number of correct
        coefficients per step, so the cost is a constant times one product
        at the full order.
        """
        f = self.field
        a = self.coeffs
        if not a[0]:
            raise ZeroConstantTerm("series has no invertible constant term")
        g = [f.inv(a[0])]
        while len(g) <= self.order:
            m = len(g)
            prec = min(2 * m, self.order + 1)
            # a*g = 1 + X^m * r mod X^prec, so g*(a*g - 1) = X^m * g*r
            r = conv(f, a, g, prec - 1)[m:]
            g += [f.neg(c) for c in conv(f, g, r, prec - 1 - m)]
        return TruncSeries1(f, g, self.order)

    def spread(self, e):
        """Substitute X -> X^e, truncated to the same order."""
        f = self.field
        out = [f.zero] * (self.order + 1)
        for n, c in enumerate(self.coeffs):
            if n * e > self.order:
                break
            out[n * e] = c
        return TruncSeries1(f, out, self.order)

    def mul_poly(self, poly):
        """Multiply by a UniPoly, truncating to this order."""
        return TruncSeries1(self.field,
                            conv(self.field, self.coeffs, poly.coeffs, self.order),
                            self.order)

    def __eq__(self, other):
        return (isinstance(other, TruncSeries1) and other.field == self.field
                and other.order == self.order and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.field, self.order, self.coeffs))

    def __repr__(self):
        shown = ", ".join(self.field.fmt(c) for c in self.coeffs[:12])
        tail = ", ..." if self.order >= 12 else ""
        return f"series[{shown}{tail}; order {self.order}]"


class TruncSeries2:
    """Bivariate series truncated at total degree T (sparse)."""

    __slots__ = ("field", "terms", "total_order")

    def __init__(self, field, terms, total_order):
        self.field = field
        self.total_order = total_order
        self.terms = {k: v for k, v in terms.items()
                      if v and k[0] + k[1] <= total_order}

    @classmethod
    def from_bipoly(cls, poly, total_order):
        return cls(poly.field, poly.terms, total_order)

    def get(self, i, j):
        if i + j > self.total_order:
            raise InsufficientPrecision(
                f"coefficient ({i},{j}) beyond total degree {self.total_order}")
        return self.terms.get((i, j), self.field.zero)

    def items(self):
        return sorted(self.terms.items())

    def is_zero(self):
        return not self.terms

    def _same(self, other):
        if not isinstance(other, TruncSeries2) or other.field != self.field:
            raise AlgSeriesError("series arithmetic needs matching fields")
        return other

    def __add__(self, other):
        other = self._same(other)
        f = self.field
        t = min(self.total_order, other.total_order)
        out = {k: v for k, v in self.terms.items() if k[0] + k[1] <= t}
        for k, v in other.terms.items():
            if k[0] + k[1] <= t:
                s = f.add(out.get(k, f.zero), v)
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return TruncSeries2(f, out, t)

    def __sub__(self, other):
        return self + other.scale(self.field.neg(self.field.one))

    def __mul__(self, other):
        other = self._same(other)
        f = self.field
        t = min(self.total_order, other.total_order)
        add, mul = f.add, f.mul
        out = {}
        for (i, j), v in self.terms.items():
            if i + j > t:
                continue
            for (a, b), w in other.terms.items():
                ii, jj = i + a, j + b
                if ii + jj > t:
                    continue
                key = (ii, jj)
                prev = out.get(key)
                out[key] = mul(v, w) if prev is None else add(prev, mul(v, w))
        return TruncSeries2(f, out, t)

    def mul_bipoly(self, poly):
        return self * TruncSeries2.from_bipoly(poly, self.total_order)

    def scale(self, c):
        f = self.field
        if not c:
            return TruncSeries2(f, {}, self.total_order)
        return TruncSeries2(f, {k: f.mul(c, v) for k, v in self.terms.items()},
                            self.total_order)

    def __eq__(self, other):
        return (isinstance(other, TruncSeries2) and other.field == self.field
                and other.total_order == self.total_order
                and other.terms == self.terms)

    def __hash__(self):
        return hash((self.field, self.total_order,
                     tuple(sorted(self.terms.items()))))

    def __repr__(self):
        return f"series2[{len(self.terms)} terms; total degree {self.total_order}]"


def series_expand_ratio(num, den, total_order):
    """Expand num/den as a TruncSeries2 of total degree ``total_order``.

    den must have a nonzero constant term; the result S satisfies
    S * den == num modulo total degree total_order + 1.
    """
    f = num.field
    d00 = den.terms.get((0, 0))
    if not d00:
        raise ZeroConstantTerm("denominator vanishes at the origin")
    inv00 = f.inv(d00)
    rest = [(a, b, c) for (a, b), c in den.items() if (a, b) != (0, 0)]
    add, sub, mul = f.add, f.sub, f.mul
    out = {}
    for t in range(total_order + 1):
        for i in range(t + 1):
            j = t - i
            acc = num.terms.get((i, j), f.zero)
            for a, b, c in rest:
                if a <= i and b <= j:
                    v = out.get((i - a, j - b))
                    if v:
                        acc = sub(acc, mul(c, v))
            if acc:
                out[(i, j)] = mul(inv00, acc)
    return TruncSeries2(f, out, total_order)


def diagonal_series(series2, order):
    """Diagonal c_n = [X^n Y^n] of a bivariate truncation."""
    if 2 * order > series2.total_order:
        raise InsufficientPrecision(
            f"diagonal to order {order} needs total degree {2 * order}, "
            f"have {series2.total_order}")
    f = series2.field
    return TruncSeries1(
        f, [series2.terms.get((n, n), f.zero) for n in range(order + 1)], order)


def eval_bipoly_at_series(poly, series):
    """P(X, f) for a BiPoly P and TruncSeries1 f, by Horner in Y."""
    f = series.field
    slices = poly.y_slices()
    if not slices:
        return TruncSeries1.zeros(f, series.order)
    degy = max(slices)
    acc = TruncSeries1.zeros(f, series.order)
    for j in range(degy, -1, -1):
        acc = acc * series
        if j in slices:
            acc = acc + poly_to_series(slices[j], f, series.order)
    return acc


def poly_to_series(poly, field, order):
    """UniPoly -> TruncSeries1 of the given order (coefficients truncated)."""
    return TruncSeries1(field, poly.coeffs[:order + 1], order)
