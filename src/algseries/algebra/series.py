"""Truncated formal power series, univariate and bivariate.

TruncSeries1 holds c_0..c_N for a fixed truncation order N; TruncSeries2
holds the box i, j <= N of a bivariate series, by anti-diagonals.
TruncSeries1 arithmetic results carry the minimum of the operand orders.
Its products go through the dense kernel conv (Kronecker substitution over
finite fields), and the inverse is a Newton iteration on top of it, so both
cost O(M(N)) for the cost M(N) of one product at order N.
anti_diagonals expands num/den in the box by the linear recurrence
S[i,j] = (num[i,j] - sum den[a,b]*S[i-a,j-b]) / den[0,0], yielding one
anti-diagonal at a time: over Q by conv.accumulate on lists of ints, over
F_q on anti-diagonals packed into ints with conv's slot format, one
reduction mod p each.  It keeps only the cells the recurrence still reads.
series_expand_ratio collects all of them into a TruncSeries2;
diagrat.diagonal_coeffs, behind both diagonal and extract, reads cells
(n, n) off them over Q, and over F_q when the diagonal's kernel automaton
is over its budget.
"""

from math import lcm

from ..errors import AlgSeriesError, InsufficientPrecision, ZeroConstantTerm
from .conv import accumulate, combine, conv, inverse, pack_bytes, scale
from .fields import QQ


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

    def _same(self, other):
        if not isinstance(other, TruncSeries1) or other.field != self.field:
            raise AlgSeriesError("series arithmetic needs matching fields")
        return other

    def __add__(self, other):
        return self._combine(other, self.field.one)

    def __sub__(self, other):
        return self._combine(other, self.field.neg(self.field.one))

    def _combine(self, other, x):
        """self + x*other, to the lower of the two orders."""
        other = self._same(other)
        f = self.field
        n = min(self.order, other.order)
        return TruncSeries1(
            f, combine(f, self.coeffs[:n + 1], x, other.coeffs[:n + 1]), n)

    def __neg__(self):
        f = self.field
        return TruncSeries1(f, scale(f, f.neg(f.one), self.coeffs), self.order)

    def __mul__(self, other):
        other = self._same(other)
        n = min(self.order, other.order)
        return TruncSeries1(self.field,
                            conv(self.field, self.coeffs, other.coeffs, n), n)

    def inverse(self):
        """Multiplicative inverse by conv.inverse, a Newton iteration; needs
        an invertible constant term."""
        if not self.coeffs[0]:
            raise ZeroConstantTerm("series has no invertible constant term")
        return TruncSeries1(self.field,
                            inverse(self.field, self.coeffs, self.order),
                            self.order)

    def spread(self, e):
        """Substitute X -> X^e, truncated to the same order."""
        out = [self.field.zero] * (self.order + 1)
        out[::e] = self.coeffs[:self.order // e + 1]
        return TruncSeries1(self.field, out, self.order)

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
    """Bivariate series modulo (X^(N+1), Y^(N+1)): the box i, j <= N.

    ``diagonals[t]`` lists the anti-diagonal i + j = t of the box, for i
    from max(0, t - N) to min(t, N), as raw values; t runs from 0 to 2N.
    """

    __slots__ = ("field", "diagonals", "order")

    def __init__(self, field, diagonals, order):
        self.field = field
        self.diagonals = diagonals
        self.order = order

    def get(self, i, j):
        """Coefficient of X^i Y^j; zero for a negative exponent."""
        N = self.order
        if i < 0 or j < 0:
            return self.field.zero
        if i > N or j > N:
            raise InsufficientPrecision(
                f"coefficient ({i},{j}) beyond the box of order {N}")
        t = i + j
        return self.diagonals[t][i - max(0, t - N)]

    def __repr__(self):
        return f"series2[box of order {self.order}]"


def series_expand_ratio(num, den, order):
    """Expand num/den modulo (X^(order+1), Y^(order+1)): the TruncSeries2
    of every anti-diagonal that anti_diagonals yields, as raw values."""
    return TruncSeries2(num.field, [[cell_value(v, unit) for v in cells]
        for unit, cells in anti_diagonals(num, den, order)], order)


def cell_value(v, unit):
    """The raw value of a cell v that anti_diagonals yields with unit."""
    return v if unit == 1 else QQ.div(v, unit)


def anti_diagonals(num, den, order):
    """Iterator over (unit, cells) for the anti-diagonals t = 0..2*order of
    num/den in the box i, j <= order, the cells laid out as
    TruncSeries2.diagonals[t]; cell_value(v, unit) is a cell's raw value.

    den must have a nonzero constant term; ZeroConstantTerm is raised by
    this call, not by the iterator.  With den(0,0) scaled to 1, cell (i, j)
    is num[i,j] - sum den[a,b]*S[i-a,j-b] over the other terms of den, and
    every S[i-a,j-b] lies on an earlier anti-diagonal.  So each
    anti-diagonal is the numerator's plus one shifted slice of an earlier
    anti-diagonal per term of den: over Q the slices are added by one
    accumulate call, over F_q as packed ints (_packed_sweep), whose cells
    are raw values, with unit 1.  Over Q, with D the lcm of the
    denominators in the box, the int cells of D*S(DX, DY) =
    (n_ij*D^(1+i+j)) / (c_ab*D^(a+b)) have the unit D^(t+1).
    """
    f = num.field
    N = order
    num_terms, den_terms = num.terms, den.terms
    d00 = den_terms.get((0, 0))
    if not d00:
        raise ZeroConstantTerm("denominator vanishes at the origin")
    if d00 != f.one:
        inv = f.inv(d00)
        num_terms = {k: f.mul(inv, c) for k, c in num_terms.items()}
        den_terms = {k: f.mul(inv, c) for k, c in den_terms.items()}
    steps = [(a, b, f.neg(c)) for (a, b), c in den_terms.items()
             if 0 < a + b and a <= N and b <= N]
    num_cells = {}
    for (i, j), c in num_terms.items():
        if i <= N and j <= N:
            num_cells.setdefault(i + j, []).append((i, c))
    if f.kind != "rationals":
        return _packed_sweep(f, num_cells, steps, N)
    D = lcm(*(c.denominator for _, _, c in steps),
            *(c.denominator for cells in num_cells.values() for _, c in cells))
    steps = [(a, b, int(c * D ** (a + b))) for a, b, c in steps]
    num_cells = {t: [(i, int(c * D ** (t + 1))) for i, c in cells]
                 for t, cells in num_cells.items()}
    return _accumulate_sweep(f, num_cells, steps, N, D)


def _reads(t, N, steps, first):
    """(s, start, at, count, x) for each step (a, b, x) that reads cells for
    anti-diagonal t: its cells at..at+count-1 (from its first cell) read
    the stored cells start..start+count-1 of anti-diagonal s = t - a - b,
    which start at i = first[s] if s was cut, else at its first cell."""
    lo, hi = max(0, t - N), min(t, N)
    for a, b, x in steps:
        s = t - a - b
        i0, i1 = max(lo, a), min(hi, t - b)
        if s >= 0 and i0 <= i1:
            base = first[s] if s in first else max(0, s - N)
            yield s, i0 - a - base, i0 - lo, i1 - i0 + 1, x


class _Window:
    """The cuts of the earlier anti-diagonals that a sweep stores.

    The step (a, b) reads anti-diagonal s at t = s + a + b, in its cells
    i <= N - a, j <= N - b.  So once the steps of size a + b <= k have read
    s, it is cut to the cells of the larger steps if that at least halves
    it.  Only larger steps with amin + bmin > N/2 halve the long ones, near
    s = N, so only theirs are tried; a far term of den leaves short
    anti-diagonals behind.  A stored anti-diagonal has ``size`` items per
    cell, from i = first[s] once cut, and is dropped after depth.
    """

    def __init__(self, steps, N, size):
        sizes = sorted({a + b for a, b, _ in steps})
        later = [[(a, b) for a, b, _ in steps if a + b > k] for k in sizes]
        cuts = [(k, min(a for a, _ in ab), min(b for _, b in ab))
                for k, ab in zip(sizes, later) if ab]
        self.cuts = [cut for cut in cuts if 2 * (cut[1] + cut[2]) > N]
        self.depth = sizes[-1] if sizes else 0
        self.N, self.size, self.first = N, size, {}

    def cut(self, store, t):
        """Cut the anti-diagonals in store that t read last by a size k."""
        N, size, first = self.N, self.size, self.first
        for k, amin, bmin in self.cuts:
            s = t - k
            if s > N - max(amin, bmin):  # else nothing to cut
                cells, i = store[s], first.get(s, max(0, s - N))
                last = i + len(cells) // size - 1
                lo, hi = max(i, s - N + bmin), min(last, N - amin)
                if 2 * (hi - lo + 1) <= last - i + 1:  # halves it
                    store[s] = cells[(lo - i) * size:(hi - i + 1) * size]
                    first[s] = lo


def _accumulate_sweep(f, num_cells, steps, N, D):
    """(D^(t+1), anti-diagonal t) over Q, the cells ints, each anti-diagonal
    by one accumulate call."""
    window = _Window(steps, N, 1)
    store = {}  # s -> anti-diagonal s, while a later one reads it
    unit = 1
    for t in range(2 * N + 1):
        unit *= D
        lo = max(0, t - N)
        acc = [f.zero] * (min(t, N) - lo + 1)
        for i, c in num_cells.get(t, ()):
            acc[i - lo] = c
        rows = [(at, x, store[s][start:start + count])
                for s, start, at, count, x in _reads(t, N, steps, window.first)]
        diagonal = accumulate(f, acc, rows)
        store[t] = diagonal
        store.pop(t - window.depth, None)
        if window.cuts:
            window.cut(store, t)
        yield unit, diagonal


def _packed_sweep(f, num_cells, steps, N):
    """(1, anti-diagonal t) over F_p or F_{p^k}, each built as one packed
    int.

    A cell takes the slots of conv.SlotFormat: one per t-digit of its
    t-polynomial product.  An anti-diagonal is its numerator cells plus,
    per step, a byte slice of an earlier packed anti-diagonal times the
    step's packed multiplier, shifted to the cells that read it; the
    format's width for len(steps) products per cell keeps every slot in
    bounds.  SlotFormat.digits folds the high t-digits and takes the slots
    mod p, once per anti-diagonal, and SlotFormat.codes reads the cells'
    codes off them.
    """
    fmt = f.slots
    width = fmt.width(len(steps))
    cell = width * fmt.per
    steps = [(a, b, fmt.scalar(x, width)) for a, b, x in steps]
    num_cells = {t: sum(fmt.scalar(c, width) << 8 * cell * (i - max(0, t - N))
                        for i, c in cells)
                 for t, cells in num_cells.items()}
    window = _Window(steps, N, cell)
    store = {}  # s -> packed anti-diagonal s, while a later one reads it
    for t in range(2 * N + 1):
        cells = min(t, N) - max(0, t - N) + 1
        acc = num_cells.get(t, 0)
        for s, start, at, count, x in _reads(t, N, steps, window.first):
            row = int.from_bytes(store[s][start * cell:(start + count) * cell],
                                 "little")
            acc += x * row << 8 * cell * at
        digits = fmt.digits(acc, cells, width)
        store[t] = pack_bytes(digits, width)
        store.pop(t - window.depth, None)
        if window.cuts:
            window.cut(store, t)
        yield 1, fmt.codes(digits, cells)


def eval_bipoly_at_series(poly, series):
    """P(X, f) for a BiPoly P and TruncSeries1 f, by Horner in Y.

    Each step is one series product; the next Y-slice's few coefficients
    are then added to it.
    """
    f = series.field
    N = series.order
    slices = poly.y_slices()
    if not slices:
        return TruncSeries1.zeros(f, N)
    degy = max(slices)
    acc = poly_to_series(slices[degy], f, N)
    for j in range(degy - 1, -1, -1):
        acc = acc * series
        if j in slices:
            acc = TruncSeries1(
                f, combine(f, acc.coeffs, f.one, slices[j].coeffs[:N + 1]), N)
    return acc


def poly_to_series(poly, field, order):
    """UniPoly -> TruncSeries1 of the given order (coefficients truncated)."""
    return TruncSeries1(field, poly.coeffs[:order + 1], order)
