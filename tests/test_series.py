from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algseries import (GF, QQ, BiPoly, DiagonalRep, TruncSeries1,
                       diagonal_coeffs, eval_bipoly_at_series, parse_poly,
                       series_expand_ratio)
from algseries.algebra import series
from algseries.algebra.series import anti_diagonals
from algseries.errors import InsufficientPrecision, ZeroConstantTerm

from conftest import F2, F3, F4, F5, F8, F9, binomial, random_bipoly


def reference_expand(num, den, total_order):
    """{(i, j): S[i,j]} for i + j <= total_order, one cell at a time.

    The triangle recurrence series_expand_ratio ran before it swept the box
    by anti-diagonals: S[i,j] = (num[i,j] - sum den[a,b]*S[i-a,j-b]) / den[0,0].
    """
    f = num.field
    d00 = den.terms.get((0, 0))
    if not d00:
        raise ZeroConstantTerm("denominator vanishes at the origin")
    inv00 = f.inv(d00)
    rest = [(a, b, c) for (a, b), c in den.items() if (a, b) != (0, 0)]
    out = {}
    for t in range(total_order + 1):
        for i in range(t + 1):
            j = t - i
            acc = num.terms.get((i, j), f.zero)
            for a, b, c in rest:
                if a <= i and b <= j:
                    v = out.get((i - a, j - b))
                    if v:
                        acc = f.sub(acc, f.mul(c, v))
            if acc:
                out[(i, j)] = f.mul(inv00, acc)
    return out


def times_den_in_box(S, den, order):
    """The nonzero cells of S * den with i, j <= order, term by term."""
    f = S.field
    out = {}
    for i in range(order + 1):
        for j in range(order + 1):
            v = S.get(i, j)
            if not v:
                continue
            for (a, b), c in den.terms.items():
                if i + a <= order and j + b <= order:
                    key = (i + a, j + b)
                    out[key] = f.add(out.get(key, f.zero), f.mul(v, c))
    return {k: v for k, v in out.items() if v}


class TestTruncSeries1:
    def test_min_order_arithmetic(self):
        a = TruncSeries1(QQ, [1, 2, 3], 2)
        b = TruncSeries1(QQ, [1, 1], 1)
        assert (a + b).order == 1
        assert (a * b).coeffs == (1, 3)

    def test_inverse(self):
        geom = TruncSeries1(QQ, [1, -1], 5)
        inv = geom.inverse()
        assert inv.coeffs == (1, 1, 1, 1, 1, 1)
        assert (geom * inv).coeffs == (1, 0, 0, 0, 0, 0)
        with pytest.raises(ZeroConstantTerm):
            TruncSeries1(QQ, [0, 1], 3).inverse()

    def test_spread(self):
        s = TruncSeries1(F2, [1, 1, 0, 1], 3)
        assert s.spread(2).coeffs == (1, 0, 1, 0)


class TestExpandRatio:
    def test_binomial_table(self):
        # 1/(1-X-Y): [X^i Y^j] = C(i+j, j) on the whole box i, j <= 4
        S = series_expand_ratio(BiPoly.one(QQ), parse_poly("1-X-Y", QQ), 4)
        table = [[1, 1, 1, 1, 1],
                 [1, 2, 3, 4, 5],
                 [1, 3, 6, 10, 15],
                 [1, 4, 10, 20, 35],
                 [1, 5, 15, 35, 70]]
        for i in range(5):
            for j in range(5):
                assert S.get(i, j) == binomial(i + j, j)
                assert S.get(i, j) == table[i][j]

    def test_trivial_one(self):
        S = series_expand_ratio(BiPoly.one(QQ), BiPoly.one(QQ), 3)
        assert S.get(0, 0) == 1 and S.get(1, 0) == 0

    def test_f2_hand_convolution(self):
        # Y/(1+X+Y) = sum_k Y(X+Y)^k; mod 2 and mod (X^3, Y^3) the cells
        # (0,1); (1,1), (0,2); (2,1) from k = 0, 1, 2 and (2,2) from k = 3
        S = series_expand_ratio(parse_poly("Y", F2), parse_poly("1+X+Y", F2), 2)
        expected = {(0, 1): 1, (1, 1): 1, (0, 2): 1, (2, 1): 1, (2, 2): 1}
        got = {(i, j): S.get(i, j) for i in range(3) for j in range(3)
               if S.get(i, j)}
        assert got == expected

    def test_zero_constant_term_rejected(self):
        with pytest.raises(ZeroConstantTerm):
            series_expand_ratio(BiPoly.one(F2), parse_poly("X+Y", F2), 3)
        # by the call itself, before the iterator yields anything
        with pytest.raises(ZeroConstantTerm):
            anti_diagonals(BiPoly.one(QQ), parse_poly("X+Y", QQ), 3)

    def test_multiply_back(self, rng):
        for field in (F2, F4, GF(5), QQ):
            for _ in range(10):
                num = random_bipoly(field, rng)
                den = random_bipoly(field, rng)
                den = den + BiPoly.constant(field, field.one) \
                    if not den.terms.get((0, 0)) else den
                N = 8
                S = series_expand_ratio(num, den, N)
                want = {k: v for k, v in num.terms.items()
                        if k[0] <= N and k[1] <= N}
                assert times_den_in_box(S, den, N) == want


class TestDiagonal:
    def test_all_ones(self):
        rep = DiagonalRep(BiPoly.one(QQ), parse_poly("(1-X)*(1-Y)", QQ))
        assert diagonal_coeffs(rep, 5).coeffs == (1,) * 6

    def test_central_binomials(self):
        rep = DiagonalRep(BiPoly.one(QQ), parse_poly("1-X-Y", QQ))
        assert diagonal_coeffs(rep, 3).coeffs == (1, 2, 6, 20)

    def test_empty_support(self):
        rep = DiagonalRep(BiPoly.zero(QQ), parse_poly("1-X-Y", QQ))
        assert diagonal_coeffs(rep, 4).is_zero()

    def test_precision_guard(self):
        # a box of order 3 holds the cells i, j <= 3 and no others
        S = series_expand_ratio(BiPoly.one(QQ), parse_poly("1-X-Y", QQ), 3)
        assert S.get(3, 3) == 20 and S.get(0, 3) == 1
        assert S.get(-1, 2) == 0 and S.get(-1, -1) == 0 and S.get(2, -3) == 0
        with pytest.raises(InsufficientPrecision):
            S.get(4, 0)
        with pytest.raises(InsufficientPrecision):
            S.get(0, 4)

    def test_linearity_in_numerator(self, rng):
        den = parse_poly("1-X-Y", F2)
        for _ in range(10):
            n1 = random_bipoly(F2, rng)
            n2 = random_bipoly(F2, rng)
            d1 = diagonal_coeffs(DiagonalRep(n1, den), 4)
            d2 = diagonal_coeffs(DiagonalRep(n2, den), 4)
            d12 = diagonal_coeffs(DiagonalRep(n1 + n2, den), 4)
            assert d12 == d1 + d2


# F31 packs two-byte slots reduced by byte tables, F10007 reduces them one
# slot at a time, and the codes of GF(3^6) are read off two-byte slots
F31, F10007, F729 = GF(31), GF(10007), GF(3 ** 6)
PROPERTY_FIELDS = [F2, F3, F5, F4, F8, F9, F31, F10007, F729, QQ]
MAX_ORDER = 12
DEN_SHAPES = ["general", "pure X", "pure Y", "constant", "zero constant term"]


def coefficients(field, nonzero=False):
    if field.is_finite:
        return st.integers(1 if nonzero else 0, field.order - 1)
    values = st.one_of(st.integers(-9, 9),
                       st.fractions(min_value=-9, max_value=9, max_denominator=6))
    return values.filter(bool) if nonzero else values


@st.composite
def ratios(draw):
    """(num, den, N): num may reach past the box; den has one of DEN_SHAPES."""
    field = draw(st.sampled_from(PROPERTY_FIELDS))
    order = draw(st.integers(0, MAX_ORDER))
    exponents = st.integers(0, order + 3)
    num = draw(st.dictionaries(st.tuples(exponents, exponents),
                               coefficients(field), max_size=6))
    shape = draw(st.sampled_from(DEN_SHAPES))
    small, positive = st.integers(0, 4), st.integers(1, 4)
    keys = {"pure X": st.tuples(positive, st.just(0)),
            "pure Y": st.tuples(st.just(0), positive)}.get(
        shape, st.tuples(small, small).filter(any))
    den = {}
    if shape != "constant":
        den = draw(st.dictionaries(keys, coefficients(field, nonzero=True),
                                   min_size=1, max_size=5))
    if shape == "zero constant term":
        den[(0, 0)] = field.zero
        den[draw(st.sampled_from([(1, 0), (0, 1), (1, 1)]))] = field.one
    else:
        den[(0, 0)] = draw(coefficients(field, nonzero=True))
    return BiPoly(field, num), BiPoly(field, den), order


@settings(max_examples=200)
@given(ratios())
def test_box_sweep_matches_triangle_recurrence(case):
    num, den, N = case
    if not den.terms.get((0, 0)):
        with pytest.raises(ZeroConstantTerm):
            series_expand_ratio(num, den, N)
        with pytest.raises(ZeroConstantTerm):
            reference_expand(num, den, 2 * N)
        return
    want = reference_expand(num, den, 2 * N)
    S = series_expand_ratio(num, den, N)
    zero = num.field.zero
    for i in range(N + 1):
        for j in range(N + 1):
            assert S.get(i, j) == want.get((i, j), zero)
    diagonal = diagonal_coeffs(DiagonalRep(num, den), N)
    assert diagonal.coeffs == tuple(want.get((n, n), zero) for n in range(N + 1))


SEVEN_TERMS = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1))
RECTANGLE_TERMS = tuple((a, b) for a in range(3) for b in range(5))


@pytest.mark.parametrize("field, keys, N", [
    (F2, SEVEN_TERMS, 120), (F8, SEVEN_TERMS, 120), (F31, SEVEN_TERMS, 120),
    (F10007, SEVEN_TERMS, 120), (F729, SEVEN_TERMS, 120),
    (GF(25), SEVEN_TERMS, 120), (GF(27), RECTANGLE_TERMS, 40)],
    ids=lambda v: {SEVEN_TERMS: "7 terms",
                   RECTANGLE_TERMS: "15 terms"}.get(v, repr(v)))
def test_dense_denominator(field, keys, N):
    # every -den[a,b] and numerator value is the code q - 1, whose t-digits
    # are all p - 1: the largest products the slot width is bounded for.
    # Over F25 and F27 these cases need wider slots than the products
    # alone, for the fold of the high t-digits.
    top = field.order - 1
    den = BiPoly(field, {key: field.neg(top) if any(key) else field.one
                         for key in keys})
    num = BiPoly(field, {(i, j): top for i in range(3) for j in range(3)})
    want = reference_expand(num, den, 2 * N)
    S = series_expand_ratio(num, den, N)
    assert [[S.get(i, j) for j in range(N + 1)] for i in range(N + 1)] == \
        [[want.get((i, j), 0) for j in range(N + 1)] for i in range(N + 1)]


def fraction_expand(num, den, N):
    """{(i, j): S[i,j]} on the box i, j <= N, row by row, by
    S[i,j] = (num[i,j] - sum den[a,b]*S[i-a,j-b]) / den[0,0] on Fractions."""
    S = {}
    for i in range(N + 1):
        for j in range(N + 1):
            acc = Fraction(num.get((i, j), 0))
            for (a, b), c in den.items():
                if (a, b) != (0, 0) and a <= i and b <= j:
                    acc -= c * S[i - a, j - b]
            S[i, j] = acc / den[0, 0]
    return S


@pytest.mark.parametrize("num, den", [
    # the lcm D of the denominators comes from num, den or both; den(0,0)
    # is 1 or a Fraction, so D is found after the scaling to den(0,0) = 1
    ({(0, 0): Fraction(1, 3), (2, 1): Fraction(-5, 7)},
     {(0, 0): 1, (1, 0): -1, (0, 1): -1}),
    ({(0, 1): 1}, {(0, 0): 1, (1, 0): Fraction(-2, 5), (1, 2): Fraction(3, 4)}),
    ({(0, 1): Fraction(2, 9), (3, 0): 4},
     {(0, 0): Fraction(3, 5), (1, 1): Fraction(-1, 6), (0, 2): Fraction(7, 2)}),
    ({(1, 1): Fraction(1, 2)}, {(0, 0): Fraction(2, 3)})])
def test_rational_sweep_matches_fraction_recurrence(num, den):
    # over Q the sweep runs on the ints of D*S(DX, DY) and divides a cell of
    # anti-diagonal t by D^(t+1); QQ keeps integral values as ints
    N = 12
    want = fraction_expand(num, den, N)
    S = series_expand_ratio(BiPoly(QQ, num), BiPoly(QQ, den), N)
    got = {(i, j): S.get(i, j) for i in range(N + 1) for j in range(N + 1)}
    assert got == want
    assert all(not isinstance(v, Fraction) or v.denominator > 1
               for v in got.values())
    diagonal = diagonal_coeffs(DiagonalRep(BiPoly(QQ, num), BiPoly(QQ, den)), N)
    assert diagonal.coeffs == tuple(want[n, n] for n in range(N + 1))


def test_far_term_leaves_short_anti_diagonals(monkeypatch):
    # X^60 Y^59 reads anti-diagonal s only at t = s + 119, and only its
    # cells i <= 4, j <= 5: once X and Y have read s, it is cut to those,
    # so the window holds about one anti-diagonal of the box, where keeping
    # the last 119 whole took about 7700 cells
    stored = []

    class Recording(series._Window):
        def cut(self, store, t):
            super().cut(store, t)
            stored.append(sum(map(len, store.values())))

    monkeypatch.setattr(series, "_Window", Recording)
    N = 64
    num, den = BiPoly.one(QQ), parse_poly("1 - X - Y - X^60*Y^59", QQ)
    want = reference_expand(num, den, 2 * N)
    diagonal = diagonal_coeffs(DiagonalRep(num, den), N)
    assert diagonal.coeffs == tuple(want.get((n, n), 0) for n in range(N + 1))
    assert max(stored) <= 2 * (N + 1)


def test_eval_bipoly_at_series():
    # P(X, f) with f = X + X^2 over Q, P = X + Y^2
    f = TruncSeries1(QQ, [0, 1, 1], 4)
    P = parse_poly("X+Y^2", QQ)
    value = eval_bipoly_at_series(P, f)
    # X + (X + X^2)^2 = X + X^2 + 2X^3 + X^4
    assert value.coeffs == (0, 1, 1, 2, 1)
