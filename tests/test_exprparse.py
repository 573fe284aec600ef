import math
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from algseries import GF, QQ, BiPoly, parse_poly
from algseries.errors import (AlgSeriesError, NegativeExponent, ParseError,
                              UnknownSymbol, ZeroDenominator)
from algseries.exprparse import POWER_TERMS_LIMIT, parse_modulus

from conftest import F2, F3, F4, F5, F8, F9, random_bipoly
from ratfn import RationalFn

F10007 = GF(10007)


def test_example1_polynomial():
    P = parse_poly("(1+X)^3*Y^2+(1+X)^2*Y+X", F2)
    expected = BiPoly(F2, {
        (1, 0): 1, (0, 1): 1, (2, 1): 1,
        (0, 2): 1, (1, 2): 1, (2, 2): 1, (3, 2): 1,
    })
    assert P == expected


def test_zero_and_simple():
    assert parse_poly("0", QQ).is_zero()
    P = parse_poly("X + Y^2", QQ)
    assert P.terms == {(1, 0): 1, (0, 2): 1}


def test_integer_literals_reduce_mod_p():
    assert parse_poly("5*X+6", F2) == parse_poly("X", F2)
    assert parse_poly("7", F5) == BiPoly.constant(F5, 2)


def test_juxtaposition_and_unary_minus():
    assert parse_poly("(1+X)Y", QQ) == parse_poly("(1+X)*Y", QQ)
    assert parse_poly("2X", QQ) == parse_poly("2*X", QQ)
    assert parse_poly("-X+Y", QQ) == parse_poly("Y-X", QQ)
    assert parse_poly("X(-2)", QQ) == parse_poly("-2*X", QQ)


def test_whitespace_ignored():
    assert parse_poly(" ( 1 + X ) ^ 2 ", QQ) == parse_poly("(1+X)^2", QQ)


def test_parse_errors_carry_offsets():
    cases = ["X^", "X+", "(1+X", "X^Y", "1+*2", "X$Y", ""]
    for text in cases:
        with pytest.raises(ParseError) as err:
            parse_poly(text, QQ)
        assert 0 <= err.value.offset <= len(text)


def test_negative_exponent():
    with pytest.raises(NegativeExponent) as err:
        parse_poly("X^-2", QQ)
    assert err.value.offset == 2


def test_unknown_symbol():
    with pytest.raises(UnknownSymbol) as err:
        parse_poly("X+Z", QQ)
    assert err.value.offset == 2
    with pytest.raises(UnknownSymbol):
        parse_poly("x", QQ)  # case-sensitive


def test_parse_unipoly_variable():
    m = parse_poly("t^2+t+1", F2, ("t",))
    assert m.as_unipoly_x().coeffs == (1, 1, 1)
    with pytest.raises(UnknownSymbol):
        parse_poly("X^2", F2, ("t",))


def test_print_parse_roundtrip(rng):
    for field in (F2, F5, QQ):
        for _ in range(200):
            # coefficients denotable by the grammar: residues / ints
            poly = random_bipoly(field, rng, max_deg=4, max_terms=5)
            text = poly.to_text()
            assert parse_poly(text, field) == poly


def test_univariate_roundtrip(rng):
    for _ in range(50):
        poly = random_bipoly(QQ, rng, max_deg=4, max_terms=4)
        text = poly.to_text()
        assert parse_poly(text, QQ) == poly


def test_extension_generator_symbol():
    P = parse_poly("t*X + Y + (1+t)*Y^2", F4)
    t = F4.from_literal([0, 1])
    assert P.terms == {(1, 0): t, (0, 1): 1, (0, 2): F4.add(1, t)}
    with pytest.raises(UnknownSymbol):
        parse_poly("t*X", F5)  # t is a field constant only over F_{p^k}


@st.composite
def extension_polys(draw):
    field = draw(st.sampled_from([F4, F8, F9]))
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.integers(0, field.order - 1), max_size=6))
    return BiPoly(field, terms)


@given(extension_polys())
def test_extension_print_parse_roundtrip(poly):
    assert parse_poly(poly.to_text(), poly.field) == poly


@st.composite
def prime_and_rational_polys(draw):
    field = draw(st.sampled_from([F2, F3, F5, GF(7), QQ]))
    if field.is_finite:
        coeffs = st.integers(0, field.order - 1)
    else:
        coeffs = st.fractions(-20, 20, max_denominator=12).map(
            lambda c: c.numerator if c.denominator == 1 else c)
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)), coeffs, max_size=6))
    return BiPoly(field, terms)


@given(prime_and_rational_polys())
def test_prime_and_rational_print_parse_roundtrip(poly):
    assert parse_poly(poly.to_text(), poly.field) == poly


def test_ratfun_coefficient_quotients():
    r = RationalFn(parse_poly("X/2", QQ).as_unipoly_x(),
                   parse_poly("1+X", QQ).as_unipoly_x())
    assert r.to_text() == "1/2*X/(1 + X)"
    # the numerator's text reads back through the quotient by a literal
    assert parse_poly("1/2*X", QQ).as_unipoly_x() == r.num


def test_division_by_integer_literal():
    assert parse_poly("3/4*X - 1/2", QQ).terms == {(1, 0): Fraction(3, 4),
                                                   (0, 0): Fraction(-1, 2)}
    assert parse_poly("X/2", F5) == parse_poly("3*X", F5)
    with pytest.raises(ZeroDenominator):
        parse_poly("X/3", F3)
    for text in ("X/Y", "X/(2)", "X/"):
        with pytest.raises(ParseError):
            parse_poly(text, QQ)


def test_only_ascii_digits_are_literals():
    # '²'.isdigit() is true, but int('²') raises ValueError
    for text, offset in (("X+Y²", 3), ("X+\u0663", 2)):
        with pytest.raises(ParseError) as err:
            parse_poly(text, F2)
        assert err.value.offset == offset
        assert "unexpected character" in str(err.value)


def test_overlong_literal_is_a_parse_error():
    # past sys.get_int_max_str_digits(), int() raises ValueError
    digits = "1" * 5000
    with pytest.raises(ParseError, match="5000 digits") as err:
        parse_poly("X+Y^2+" + digits, F2)
    assert err.value.offset == 6
    with pytest.raises(ParseError) as err:
        parse_modulus("t^" + digits, 2, 2)
    assert err.value.offset == 2


def test_errors_in_reading_order():
    # the parser evaluates as it reads: the zero divisor comes before the
    # stray ')', but a bad character anywhere comes first
    with pytest.raises(ZeroDenominator):
        parse_poly("X/3 )", F3)
    with pytest.raises(ParseError, match="unexpected character"):
        parse_poly("X/3 $", F3)


def test_deep_nesting_is_a_parse_error():
    # one Python frame per rule: 2000 pairs pass the recursion limit
    deep = "(" * 2000 + "X" + ")" * 2000 + "+Y^2"
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_poly(deep, F2)
    assert parse_poly("(" * 100 + "X" + ")" * 100 + "+Y^2", F2) == \
        parse_poly("X+Y^2", F2)


def test_power_terms_are_bounded():
    # checked before the first product: 10^8 squarings would never end
    with pytest.raises(ParseError, match="POWER_TERMS_LIMIT") as err:
        parse_poly("(1+X)^99999999+Y^2", F3)
    assert err.value.offset == 6
    n = POWER_TERMS_LIMIT - 1  # (1+X)^n has n + 1 terms
    assert parse_poly(f"(1+X)^{n}", QQ).terms[(n // 2, 0)] == \
        Fraction(math.comb(n, n // 2))
    with pytest.raises(ParseError):
        parse_poly(f"(1+X)^{n + 1}", QQ)
    # the count is the smaller of the box and the products of n terms
    assert len(parse_poly("(X^1000+Y)^2", F5).terms) == 3
    assert len(parse_poly("(X+Y)^300", QQ).terms) == 301
    with pytest.raises(ParseError):
        parse_poly("(1+X+Y)^31", F5)  # C(33, 2) = 528 terms
    # powers of a monomial are not bounded
    assert parse_poly("Y^1000000", F2).terms == {(0, 1000000): 1}
    assert parse_poly("(2*X*Y)^1000", F3).terms == {(1000, 1000): 1}


def test_product_terms_are_bounded():
    # F10007: no binomial coefficient below 10007 vanishes, so powers of
    # 1+X and 1+X+Y keep all their terms
    # P^511*P^511 is rejected as P^1022 is, at the operator, before the
    # product; juxtaposition is reported at its second factor
    for text in ("(1+X)^511*(1+X)^511", "(1+X)^1022"):
        with pytest.raises(ParseError, match="POWER_TERMS_LIMIT"):
            parse_poly(text, F10007)
    with pytest.raises(ParseError, match="product may have") as err:
        parse_poly("(1+X)^256*(1+X)^256", F10007)
    assert err.value.offset == 9
    with pytest.raises(ParseError, match="product may have") as err:
        parse_poly("X + (1+X)^256 (1+X)^256", F10007)
    assert err.value.offset == 14
    with pytest.raises(ParseError):
        parse_poly("X*(1+X+Y)^30*(1+X+Y)^30 + Y^2", F10007)
    # the count is the smaller of the box and the |A|*|B| term products
    assert parse_poly("(1+X)^255*(1+X)^256", F10007) == \
        parse_poly("(1+X)^511", F10007)
    assert len(parse_poly("(1+X)^30*(1+X)^30", F10007).terms) == 61
    assert len(parse_poly("(1+X^1000)*(1+Y^1000)", F10007).terms) == 4
    # products with a monomial are not bounded
    assert parse_poly("X^1000000*Y^1000000", F2).terms == \
        {(1000000, 1000000): 1}
    assert len(parse_poly("X^1000*(1+X)^511*Y", F10007).terms) == 512
    sum_600 = "+".join(f"X^{i}" for i in range(600))
    assert len(parse_poly(f"2*X^1000*({sum_600})", F10007).terms) == 600


@st.composite
def parser_texts(draw):
    """Short texts over the grammar's characters; exponents keep at most
    2 digits.  Each may gain a 5000-digit run, a power (1+X)^n with n up
    to 10^12, and parentheses nested up to 3000 deep around a slice."""
    text = draw(st.text("XYt0123456789+-*/^() ²", max_size=12))
    text = re.sub(r"\^(\s*[0-9]{1,2})[0-9]*", r"^\1", text)

    def cut():
        return draw(st.integers(0, len(text)))

    if draw(st.booleans()):
        at = cut()
        text = text[:at] + "7" * 5000 + text[at:]
    if draw(st.booleans()):
        at = cut()
        text = f"{text[:at]}(1+X)^{draw(st.integers(0, 10 ** 12))}{text[at:]}"
    if draw(st.booleans()):
        a, b = sorted((cut(), cut()))
        depth = draw(st.integers(1, 3000))
        text = text[:a] + "(" * depth + text[a:b] + ")" * depth + text[b:]
    return text


@given(parser_texts(), st.sampled_from([F2, F3, F4, F5, QQ]))
def test_parse_poly_returns_or_raises_algseries_error(text, field):
    try:
        poly = parse_poly(text, field)
    except AlgSeriesError:
        return
    assert isinstance(poly, BiPoly) and poly.field == field
