from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from algseries import (GF, QQ, BiPoly, UniPoly, derivative_y, parse_poly,
                       substitute_xy)
from algseries.errors import AlgSeriesError, ZeroDenominator

from conftest import ALL_FIELDS, F2, F3, F4, F5, F9, random_bipoly, random_raw
from ratfn import RationalFn


def uni(field, text):
    return parse_poly(text, field).as_unipoly_x()


class TestUniPoly:
    def test_construction_strips_zeros(self):
        p = UniPoly(QQ, [1, 2, 0, 0])
        assert p.coeffs == (1, 2)
        assert UniPoly(QQ, [0, 0]).is_zero()
        assert UniPoly.zero(QQ).degree == -1

    def test_mul_degree_additive(self, rng):
        for field in (F2, GF(5), QQ):
            for _ in range(30):
                a = UniPoly(field, [random_raw(field, rng) for _ in range(rng.randint(1, 5))])
                b = UniPoly(field, [random_raw(field, rng) for _ in range(rng.randint(1, 5))])
                if a.is_zero() or b.is_zero():
                    assert (a * b).is_zero()
                else:
                    assert (a * b).degree == a.degree + b.degree

    def test_divmod_and_gcd(self):
        f5 = GF(5)
        a = uni(f5, "X^3+2*X+1")
        b = uni(f5, "X+1")
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree < b.degree
        # (X^2+1) = (X+1)^2 over F_2
        g = uni(F2, "X^2+1").gcd(uni(F2, "X+1"))
        assert g == uni(F2, "X+1")

    def test_evaluate_and_derivative(self):
        p = uni(QQ, "X^3+2*X")
        assert p.evaluate(3) == 33
        # p' = 3*X^2 + 2, as derivative_y of the same polynomial in Y
        slope = derivative_y(parse_poly("Y^3+2*Y", QQ)).eval_x(QQ.zero)
        assert slope.evaluate(3) == 29

    def test_subst_power(self):
        p = uni(F2, "1+X+X^3")
        assert p.subst_power(2) == uni(F2, "1+X^2+X^6")

    def test_pow(self):
        p = UniPoly(F3, [1, 2, 1])
        assert p ** 0 == UniPoly.one(F3)
        assert p ** 5 == p * p * p * p * p

    def test_negative_pow_raises(self):
        # n >>= 1 stays -1 for n < 0: a loop on n alone would not end
        with pytest.raises(AlgSeriesError, match="negative"):
            UniPoly(F2, [1, 1]) ** -2


def reference_divmod(a, b):
    """Schoolbook division, one field operation per coefficient product."""
    f = a.field
    rem = list(a.coeffs)
    dq = len(rem) - len(b.coeffs)
    if dq < 0:
        return UniPoly.zero(f), a
    quot = [f.zero] * (dq + 1)
    inv_lead = f.inv(b.lead())
    for k in range(dq, -1, -1):
        top = rem[k + b.degree]
        if top:
            c = f.mul(top, inv_lead)
            quot[k] = c
            for i, oc in enumerate(b.coeffs):
                rem[k + i] = f.sub(rem[k + i], f.mul(c, oc))
    return UniPoly(f, quot), UniPoly(f, rem[:b.degree])


@st.composite
def division_pairs(draw):
    # quotients past conv.NEWTON_MIN and products past conv.SCHOOLBOOK_MAX
    # reach the Newton and packed paths of divmod; trailing zeros are dropped
    # by UniPoly
    field = draw(st.sampled_from([F2, F3, F5, F4, F9, GF(3 ** 6), GF(257), QQ]))
    if field.is_finite:
        coeff = st.integers(0, field.order - 1)
    else:
        coeff = st.fractions(-9, 9, max_denominator=6).map(
            lambda c: c.numerator if c.denominator == 1 else c)
    a = UniPoly(field, draw(st.lists(coeff, max_size=120)))
    b = UniPoly(field, draw(st.lists(coeff, min_size=1, max_size=40)))
    if b.is_zero():
        b = UniPoly.one(field)
    return a, b


@given(division_pairs())
def test_divmod_matches_reference(pair):
    a, b = pair
    quot, rem = a.divmod(b)
    assert (quot, rem) == reference_divmod(a, b)
    assert quot * b + rem == a
    assert rem.degree < b.degree


@st.composite
def quotient_cases(draw):
    """Exact and inexact divisions, degree-0 divisors and dividends
    shorter than the divisor."""
    a, b = draw(division_pairs())
    kind = draw(st.sampled_from(["any", "exact", "constant", "short"]))
    if kind == "exact":
        a = a * b
    elif kind == "constant":
        b = UniPoly(b.field, [b.lead()])
    elif kind == "short":
        a = UniPoly(a.field, a.coeffs[:max(b.degree, 0)])
    return a, b


@given(quotient_cases())
def test_floordiv_is_the_divmod_quotient(pair):
    # // reads the quotient off the top coefficients alone
    a, b = pair
    assert a // b == a.divmod(b)[0] == reference_divmod(a, b)[0]


@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
def test_floordiv_by_zero_raises(field):
    with pytest.raises(ZeroDivisionError):
        UniPoly(field, [field.one, field.one]) // UniPoly.zero(field)
    with pytest.raises(ZeroDivisionError):
        UniPoly.zero(field) // UniPoly.zero(field)


class TestBiPoly:
    def test_substitute_xy_examples(self):
        # X -> XY
        assert substitute_xy(BiPoly(QQ, {(1, 0): 1})) == parse_poly("X*Y", QQ)
        # X + Y^2 -> XY + Y^2
        assert substitute_xy(parse_poly("X+Y^2", QQ)) == parse_poly("X*Y+Y^2", QQ)
        # (1+X)^2 * Y over F_2 -> Y + X^2 Y^3, via the brute-force monomial map
        P = parse_poly("(1+X)^2*Y", F2)
        expected = BiPoly(F2, {(a, a + b): c for (a, b), c in P.terms.items()})
        assert substitute_xy(P) == expected == parse_poly("Y+X^2*Y^3", F2)

    def test_substitute_preserves_x_degree(self, rng):
        for _ in range(25):
            P = random_bipoly(QQ, rng)
            S = substitute_xy(P)
            assert S.deg_x == P.deg_x
            assert set(S.terms) == {(a, a + b) for (a, b) in P.terms}

    def test_derivative_y_examples(self):
        assert derivative_y(parse_poly("Y^2", F2)).is_zero()
        assert derivative_y(parse_poly("X+Y^2", QQ)) == parse_poly("2*Y", QQ)
        P = parse_poly("(1+X)^3*Y^2+(1+X)^2*Y+X", F2)
        assert derivative_y(P) == parse_poly("(1+X)^2", F2)

    def test_derivative_coefficient_rule(self, rng):
        for field in (F2, GF(3), QQ):
            for _ in range(20):
                P = random_bipoly(field, rng)
                D = derivative_y(P)
                for (i, j), c in P.terms.items():
                    if j:
                        expect = field.mul(field.from_int(j), c)
                        assert D.terms.get((i, j - 1), field.zero) == expect

    def test_pow(self, rng):
        for field in (F2, F4, QQ):
            P = random_bipoly(field, rng)
            assert P ** 0 == BiPoly.one(field)
            assert P ** 3 == P * P * P

    def test_negative_pow_raises(self):
        with pytest.raises(AlgSeriesError, match="negative"):
            BiPoly.y(F2) ** -1
        with pytest.raises(AlgSeriesError, match="negative"):
            BiPoly(QQ, {(0, 1): Fraction(1, 2)}) ** -1

    @given(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                           st.fractions(-9, 9, max_denominator=12), max_size=4),
           st.integers(0, 9))
    def test_rational_pow_matches_repeated_product(self, terms, n):
        # over Q the power runs on ints, after scaling P by the lcm D of its
        # denominators, and divides each term by D^n
        P = BiPoly(QQ, {k: c.numerator if c.denominator == 1 else c
                        for k, c in terms.items()})
        want = BiPoly.one(QQ)
        for _ in range(n):
            want = want * P
        got = P ** n
        assert got == want
        assert all(not isinstance(c, Fraction) or c.denominator > 1
                   for c in got.terms.values())

    def test_equal_polynomials_are_one_key(self):
        # closures key their states by the polynomials themselves
        a = BiPoly(F3, {(0, 1): 1, (2, 0): 2})
        b = BiPoly(F3, {(2, 0): 2, (0, 1): 1, (1, 1): 0})
        assert a == b and hash(a) == hash(b)
        assert len({a: 0, b: 1}) == 1

    def test_eval_slices(self):
        P = parse_poly("X^2*Y+3*Y^2+X", QQ)
        assert P.eval_x(QQ.zero) == UniPoly(QQ, [0, 0, 3])
        slices = P.y_slices()
        assert slices[0] == UniPoly(QQ, [0, 1])
        assert slices[1] == UniPoly(QQ, [0, 0, 1])


class TestRationalFn:
    def test_cancel_monomial(self):
        r = RationalFn(uni(F2, "X^2+X"), uni(F2, "X"))
        assert r.num == uni(F2, "X+1") and r.den == UniPoly.one(F2)

    def test_already_reduced(self):
        r = RationalFn(uni(F2, "X"), uni(F2, "X+1"))
        assert r.num == uni(F2, "X") and r.den == uni(F2, "X+1")

    def test_square_factor(self):
        # X^2+1 = (X+1)^2 over F_2
        r = RationalFn(uni(F2, "X^2+1"), uni(F2, "X+1"))
        assert r.num == uni(F2, "X+1") and r.den == UniPoly.one(F2)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            RationalFn(uni(F2, "X"), UniPoly.zero(F2))

    def test_monic_denominator_over_q(self):
        r = RationalFn(uni(QQ, "X"), uni(QQ, "2*X+2"))
        assert r.den.lead() == 1

    def test_canonical_equality_under_common_factor(self, rng):
        for field in ALL_FIELDS:
            for _ in range(15):
                n = UniPoly(field, [random_raw(field, rng) for _ in range(3)])
                d = UniPoly(field, [random_raw(field, rng, nonzero=True)
                                    for _ in range(2)])
                a = UniPoly(field, [random_raw(field, rng, nonzero=True)
                                    for _ in range(2)])
                if d.is_zero() or a.is_zero():
                    continue
                assert RationalFn(n * a, d * a) == RationalFn(n, d)

    def test_field_operations(self):
        half = RationalFn(uni(QQ, "1"), uni(QQ, "X"))
        x = RationalFn.from_poly(uni(QQ, "X"))
        assert (half * x).is_one()
        s = half + half
        assert s == RationalFn(uni(QQ, "2"), uni(QQ, "X"))
        assert (s - s).is_zero()
        assert s.inverse() == RationalFn(uni(QQ, "X"), uni(QQ, "2"))
