import pytest

from algseries import (QQ, BiPoly, DiagonalRep, diagonal_coeffs,
                       fixed_point_coefficients, furstenberg_rep, parse_poly)
from algseries.errors import HypothesisViolated

from conftest import F2, F5, binomial, random_problem, thue_morse


def test_linear_root():
    rep = furstenberg_rep(parse_poly("Y-X", QQ))
    assert rep.num == parse_poly("Y", QQ)
    assert rep.den == parse_poly("1-X", QQ)
    assert diagonal_coeffs(rep, 5).coeffs == (0, 1, 0, 0, 0, 0)


def test_catalan_rep_matches_reduced_form():
    rep = furstenberg_rep(parse_poly("X+Y^2-Y", QQ))
    assert rep.num == parse_poly("Y-2*Y^2", QQ)
    assert rep.den == parse_poly("1-X-Y", QQ)
    diag = diagonal_coeffs(rep, 5)
    # c_n = C(2n-1, n-1) - 2 C(2n-2, n-2): 0, 1, 1, 2, 5, 14
    expected = [binomial(2 * n - 1, n - 1) - 2 * binomial(2 * n - 2, n - 2)
                for n in range(6)]
    assert list(diag.coeffs) == expected == [0, 1, 1, 2, 5, 14]


def test_catalan_diagonal_direct():
    rep = DiagonalRep(parse_poly("Y-2*Y^2", QQ), parse_poly("1-X-Y", QQ))
    assert diagonal_coeffs(rep, 4).coeffs == (0, 1, 1, 2, 5)


def test_example1_direct_form_gives_thue_morse():
    P = parse_poly("(1+X)^3*Y^2+(1+X)^2*Y+X", F2)
    rep = furstenberg_rep(P)
    assert rep.den.terms[(0, 0)] == F2.one
    diag = diagonal_coeffs(rep, 40)
    assert list(diag.coeffs) == [thue_morse(n) for n in range(41)]


def test_rep_requires_hypotheses():
    with pytest.raises(HypothesisViolated):
        furstenberg_rep(parse_poly("1+Y", QQ))   # Q(0,0) != 0
    with pytest.raises(HypothesisViolated):
        furstenberg_rep(parse_poly("X+Y^2", QQ))  # Q_Y(0,0) == 0


def test_rep_rejects_zero_den_origin():
    with pytest.raises(HypothesisViolated):
        DiagonalRep(BiPoly.one(F2), parse_poly("X+Y", F2))


def test_trivial_diagonals():
    rep = DiagonalRep(BiPoly.one(QQ), parse_poly("(1-X)*(1-Y)", QQ))
    assert diagonal_coeffs(rep, 6).coeffs == (1,) * 7
    rep2 = DiagonalRep(BiPoly.one(F2), parse_poly("1-X-Y", F2))
    assert diagonal_coeffs(rep2, 4).coeffs == (1, 0, 0, 0, 0)


def test_round_trip_small_corpus(rng):
    for field in (F2, F5, QQ):
        for _ in range(12):
            prob = random_problem(field, rng)
            Q = prob.poly - BiPoly.y(field)
            got = diagonal_coeffs(furstenberg_rep(Q), 16)
            want = fixed_point_coefficients(prob, 16)
            assert got == want
