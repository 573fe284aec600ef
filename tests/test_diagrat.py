import pytest
from hypothesis import given, settings, strategies as st

from algseries import (GF, QQ, BiPoly, DiagonalRep, FixedPointProblem,
                       diagonal_coeffs, fixed_point_coefficients,
                       furstenberg_rep, parse_poly, rational_kernel)
from algseries import diagrat
from algseries.algebra.series import anti_diagonals, cell_value
from algseries.diagrat import sweep_cells
from algseries.errors import HypothesisViolated, StateBudgetExceeded

from conftest import (F2, F3, F4, F5, F8, F9, binomial, random_problem,
                      thue_morse)


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


# -- over F_q: the diagonal kernel automaton, with the sweep as fallback ----

F7, F31 = GF(7), GF(31)
CLOSURE_FIELDS = [F2, F3, F4, F5, F7, F8, F9]

# X^a Y^b with 2a + b >= 2, near the origin and far from it: for N <= 24
# many far ones lie past the box of the sweep
NEAR = st.tuples(st.integers(0, 3), st.integers(0, 4))
FAR = st.tuples(st.integers(0, 40), st.integers(0, 60))


def sweep_coeffs(rep, N):
    """Cells (n, n) of the anti-diagonal sweep, the middle cells of the even
    anti-diagonals."""
    sweep = anti_diagonals(rep.num, rep.den, N)
    return [cell_value(cells[len(cells) // 2], unit)
            for t, (unit, cells) in enumerate(sweep) if t % 2 == 0]


def no_sweep(*args):
    raise AssertionError("sweep ran")


@st.composite
def fq_problems(draw):
    field = draw(st.sampled_from(CLOSURE_FIELDS))
    coeffs = st.integers(0, field.order - 1)
    hypothesis_pair = lambda ab: 2 * ab[0] + ab[1] >= 2
    terms = draw(st.dictionaries(NEAR.filter(hypothesis_pair), coeffs,
                                 min_size=1, max_size=3))
    terms.update(draw(st.dictionaries(FAR.filter(hypothesis_pair), coeffs,
                                      max_size=2)))
    return FixedPointProblem(BiPoly(field, terms)), draw(st.integers(0, 24))


# a closure that needs more term products than this is left to the sweep;
# about one in seven drawn examples is, mostly one with far terms
PROPERTY_WORK = 20000


@settings(max_examples=150)
@given(fq_problems())
def test_closure_route_matches_sweep_and_oracle(case):
    prob, N = case
    rep = furstenberg_rep(prob.poly - BiPoly.y(prob.field))
    sweep = sweep_coeffs(rep, N)
    assert sweep == list(fixed_point_coefficients(prob, N).coeffs)
    try:
        automaton = rational_kernel(rep.num, rep.den, diagonal=True,
                                    work=PROPERTY_WORK)
    except StateBudgetExceeded:
        automaton = None
    if automaton is not None:
        assert list(automaton.generate(N).coeffs) == sweep
    assert list(diagonal_coeffs(rep, N).coeffs) == sweep


@pytest.mark.parametrize("field, text, N", [
    (F8, "X + Y^2 + X*Y^3 - Y", 384),
    (F5, "X + X*Y + Y^2 - Y", 320),
    (F2, "(1+X)^3*Y^2 + (1+X)^2*Y + X", 384),
    (F3, "X + X*Y + Y^2 - Y", 160)])
def test_benchmark_diagonals_take_the_closure(field, text, N, monkeypatch):
    # the three diagonal --from-poly inputs of the series-Fq benchmark, and
    # the diagonal of its F3 extract input, fit the closure budget: with the
    # sweep stubbed out they still succeed
    rep = furstenberg_rep(parse_poly(text, field))
    want = sweep_coeffs(rep, N)
    monkeypatch.setattr(diagrat, "anti_diagonals", no_sweep)
    assert list(diagonal_coeffs(rep, N).coeffs) == want


@pytest.mark.parametrize("N", [128, 1024])
def test_over_budget_falls_back_to_the_sweep(N, monkeypatch):
    # over F31, D^30 alone has thousands of terms: its products are charged
    # before they run, so the closure gives up early and the sweep computes
    # the coefficients
    raised = []

    def closure(*args, **kwargs):
        try:
            return rational_kernel(*args, **kwargs)
        except StateBudgetExceeded as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(diagrat, "rational_kernel", closure)
    rep = furstenberg_rep(parse_poly("X + 2*Y^2 + X*Y^3 + X^2*Y - Y", F31))
    assert list(diagonal_coeffs(rep, N).coeffs) == sweep_coeffs(rep, N)
    assert len(raised) == 1


def test_zero_share_always_sweeps(monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args)
        return anti_diagonals(*args)

    rep = furstenberg_rep(parse_poly("X + Y^2 + X*Y^3 - Y", F8))
    closure = diagonal_coeffs(rep, 64)
    assert not calls
    monkeypatch.setattr(diagrat, "anti_diagonals", spy)
    monkeypatch.setattr(diagrat, "CLOSURE_SHARE", 0)
    assert diagonal_coeffs(rep, 64) == closure
    assert len(calls) == 1


def test_sweep_cells():
    # 1 - X - Y - X^1000*Y^999 to N = 1024: the far term updates 25 * 26
    # cells; the constant term none
    den = parse_poly("1 - X - Y - X^1000*Y^999", F3)
    assert sweep_cells(den, 1024) == 2 * 1025 * 1024 + 25 * 26
    assert sweep_cells(parse_poly("1 + X^2000", F3), 1024) == 0
