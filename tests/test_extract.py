import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from algseries import (GF, QQ, BiPoly, FixedPointProblem, parse_poly,
                       eval_bipoly_at_series, fixed_point_coefficients,
                       fs_coefficients, fs_partial_sum, furstenberg_rep,
                       is_fixed_point)
from algseries.algebra import series
from algseries.algebra.conv import conv
from algseries.algebra.polys import derivative_y
from algseries.algebra.series import TruncSeries1
from algseries.errors import HypothesisViolated
from algseries.roots import hensel_root

from conftest import (F2, F3, F4, F5, F8, F9, catalan_numbers, random_problem,
                      thue_morse)

F7 = GF(7)
F31 = GF(31)


def problem(text, field):
    return FixedPointProblem(parse_poly(text, field))


class TestHypotheses:
    def test_rejects_constant_term(self):
        with pytest.raises(HypothesisViolated) as err:
            problem("1+X", QQ)
        assert "P(0,0)" in str(err.value)

    def test_rejects_linear_y(self):
        with pytest.raises(HypothesisViolated) as err:
            problem("Y", QQ)
        assert "P'_Y(0,0)" in str(err.value)

    def test_reports_both(self):
        with pytest.raises(HypothesisViolated) as err:
            problem("1+Y", QQ)
        message = str(err.value)
        assert "P(0,0)" in message and "P'_Y(0,0)" in message

    def test_weight_invariant(self, rng):
        for _ in range(50):
            prob = random_problem(QQ, rng)
            assert all(2 * a + b >= 2 for (a, b) in prob.poly.terms)


class TestFsCoefficients:
    def test_p_equals_x(self):
        f = fs_coefficients(problem("X", QQ), 6)
        assert f.coeffs == (0, 1, 0, 0, 0, 0, 0)

    def test_catalan(self):
        f = fs_coefficients(problem("X+Y^2", QQ), 5)
        assert f.coeffs[1:] == (1, 1, 2, 5, 14)

    def test_catalan_mod_2(self):
        # reduce the rational oracle mod 2: nonzero iff n is a power of two
        f = fs_coefficients(problem("X+Y^2", F2), 8)
        cat = catalan_numbers(8)
        assert list(f.coeffs[1:]) == [c % 2 for c in cat]
        assert f.coeffs[1:] == (1, 1, 0, 1, 0, 0, 0, 1)

    def test_zero_polynomial(self):
        f = fs_coefficients(FixedPointProblem(BiPoly.zero(QQ)), 5)
        assert f.is_zero()

    def test_zero_polynomial_finite_field(self):
        # P = 0 has no terms to step with: the sweep ends before P^1
        prob = FixedPointProblem(BiPoly.zero(F2))
        assert fs_coefficients(prob, 1).coeffs == (0, 0)
        assert fs_partial_sum(prob, 1, 1) == 0


class TestFixedPointOracle:
    def test_p_equals_x(self):
        f = fixed_point_coefficients(problem("X", QQ), 4)
        assert f.coeffs == (0, 1, 0, 0, 0)

    def test_catalan_ten(self):
        f = fixed_point_coefficients(problem("X+Y^2", QQ), 10)
        assert list(f.coeffs[1:]) == catalan_numbers(10)

    def test_thue_morse_fixed_point_form(self):
        # the Thue-Morse equation in fixed-point form: f = (1+X)^3 f^2 + X^2 f + X
        f = fixed_point_coefficients(problem("(1+X)^3*Y^2+X^2*Y+X", F2), 8)
        assert list(f.coeffs) == [thue_morse(n) for n in range(9)]


class TestPartialSums:
    def test_catalan_f2_terms(self):
        prob = problem("X+Y^2", QQ)
        assert fs_partial_sum(prob, 2, 2) == -2
        assert fs_partial_sum(prob, 2, 3) == 1

    def test_catalan_f4_terms(self):
        # f_4 = 5 once m_max reaches 2*4 - 1 = 7
        prob = problem("X+Y^2", QQ)
        assert [fs_partial_sum(prob, 4, m_max) for m_max in range(1, 10)] == \
            [0, 0, 0, 0, 0, -30, 5, 5, 5]

    @pytest.mark.parametrize("field", [F2, QQ])
    def test_negative_n_is_zero(self, field):
        # as TruncSeries2.get reads 0 at a negative exponent
        prob = problem("X+Y^2+X*Y^3", field)
        for n in (-1, -2, -7):
            assert fs_partial_sum(prob, n, 3) == field.zero

    def test_linear_term(self, rng):
        # n=1, m_max=1: only [X]P survives
        for field in (QQ, F2, F3):
            for _ in range(10):
                prob = random_problem(field, rng)
                expect = prob.poly.terms.get((1, 0), field.zero)
                assert fs_partial_sum(prob, 1, 1) == expect

    def test_stabilization(self, rng):
        for field in (QQ, F2, F5):
            for _ in range(10):
                prob = random_problem(field, rng)
                for n in (2, 3, 4):
                    early = fs_partial_sum(prob, n, 2 * n - 1)
                    late = fs_partial_sum(prob, n, 2 * n + 4)
                    assert early == late


class TestLiveTerms:
    @pytest.mark.parametrize("field", [F2, QQ])
    def test_unreachable_term_changes_nothing(self, field, monkeypatch):
        # Y^1000000 lies past the box of the diagonal sweep, so it changes
        # neither f nor the sweep's depth, the number of anti-diagonals it
        # keeps.  Over F_q fs_coefficients may read f off the diagonal
        # kernel automaton instead, so the depth is taken on the sweep of
        # the diagonal that f is (furstenberg_rep(P - Y)) itself
        N = 64
        texts = ("X+Y^2", "X+Y^2+Y^1000000")
        windows = []

        class Recording(series._Window):
            def __init__(self, *args):
                super().__init__(*args)
                windows.append(self)

        monkeypatch.setattr(series, "_Window", Recording)
        for text in texts:
            rep = furstenberg_rep(parse_poly(text, field) - BiPoly.y(field))
            for _ in series.anti_diagonals(rep.num, rep.den, N):
                pass
        # X^a Y^b of P is the step (a, a + b - 1) of den, depth 2a + b - 1
        assert [window.depth for window in windows] == [1, 1]
        values = [fs_coefficients(problem(text, field), N) for text in texts]
        assert values[0] == values[1]
        assert list(values[0].coeffs[1:]) == [
            c % 2 if field is F2 else c for c in catalan_numbers(N)]

    def test_oracle_drops_unreachable_term(self):
        # Y^100000 has a + b > N: X^a f^b = 0 mod X^(N+1), so the oracle
        # drops it before the lift and the substitution
        N = 64
        start = time.perf_counter()
        far = fixed_point_coefficients(problem("X+Y^2+Y^100000", F2), N)
        assert time.perf_counter() - start < 1.0
        assert far == fixed_point_coefficients(problem("X+Y^2", F2), N)
        assert list(far.coeffs[1:]) == [c % 2 for c in catalan_numbers(N)]


class TestOracleAgreement:
    def test_small_corpus_all_fields(self, rng):
        # includes F_4 to exercise the extension path
        for field in (F2, F3, F4, F5, QQ):
            for _ in range(10):
                prob = random_problem(field, rng)
                assert fs_coefficients(prob, 16) == \
                    fixed_point_coefficients(prob, 16)

    def test_substitution_check(self, rng):
        for field in (F2, F5, QQ):
            for _ in range(10):
                prob = random_problem(field, rng)
                f = fs_coefficients(prob, 12)
                assert eval_bipoly_at_series(prob.poly, f) == f


# -- the earlier algorithms, kept here as references ------------------------

def substitution_oracle(problem, N):
    """f <- P(X, f) from 0, step k at order k, by Horner on dense lists."""
    field = problem.field
    slices = {}
    for (a, b), c in problem.poly.terms.items():
        if a <= N:
            slices.setdefault(b, {})[a] = c
    degy = max(slices, default=0)

    def substitute(f, n):
        acc = [field.zero] * (n + 1)
        for j in range(degy, -1, -1):
            acc = conv(field, acc, f, n)
            for i, c in slices.get(j, {}).items():
                if i <= n:
                    acc[i] = field.add(acc[i], c)
        return acc

    f = [field.zero] * (N + 1)
    for k in range(1, N + 1):
        f[:k + 1] = substitute(f, k)
    return f


def relaxed_power_rows(problem, N):
    """P^m rows kept while i <= N, j <= 2N - 2 and
    (2i + j <= 2N - 1 + m or i + j <= N - 1 + m)."""
    field = problem.field
    pterms = list(problem.poly.terms.items())
    ymax = 2 * N - 2
    rows = {}
    for (a, b), c in pterms:
        if a <= N and b <= ymax:
            rows.setdefault(b, {})[a] = c
    for m in range(1, 2 * N):
        if not rows:
            return
        yield m, rows
        nxt = {}
        for j, row in rows.items():
            for (a, b), c in pterms:
                jj = j + b
                if jj > ymax:
                    continue
                dst = nxt.setdefault(jj, {})
                for i, v in row.items():
                    ii = i + a
                    if ii > N or (2 * ii + jj > 2 * N + m and ii + jj > N + m):
                        continue
                    dst[ii] = field.add(dst.get(ii, field.zero), field.mul(c, v))
        rows = {j: {i: v for i, v in row.items() if v} for j, row in nxt.items()}
        rows = {j: row for j, row in rows.items() if row}


def relaxed_fs_coefficients(problem, N):
    field = problem.field
    w = BiPoly.one(field) - derivative_y(problem.poly)
    wrows = {}
    for (a, b), c in w.terms.items():
        wrows.setdefault(b, []).append((a, c))
    f = [field.zero] * (N + 1)
    for m, rows in relaxed_power_rows(problem, N):
        for bw, wterms in wrows.items():
            for aw, cw in wterms:
                for i, v in rows.get(m - 1 - bw, {}).items():
                    if i + aw <= N:
                        f[i + aw] = field.add(f[i + aw], field.mul(cw, v))
    f[0] = field.zero
    return f


# monomials X^a Y^b that P may have: 2a + b >= 2
MONOMIALS = st.tuples(st.integers(0, 3), st.integers(0, 4)).filter(
    lambda ab: 2 * ab[0] + ab[1] >= 2)


FINITE = {"F2": F2, "F3": F3, "F4": F4, "F5": F5, "F7": F7, "F8": F8,
          "F9": F9, "F31": F31}


def rationals(bound, denominator):
    # QQ keeps integral values as ints
    return st.fractions(-bound, bound, max_denominator=denominator).map(
        lambda c: c.numerator if c.denominator == 1 else c)


@st.composite
def fixed_point_problems(draw, kinds=("F2", "F3", "F4", "F5", "F7", "F8", "F9",
                                      "F31", "Q", "Q/", "Qbig")):
    """(P, N) over F2, F3, F4, F5, F7, F8, F9, F31 or Q, with N up to 24.

    Qbig draws coefficients up to 10^6 in size with denominators up to
    10^3, so the Q sweep runs on cells scaled by large powers D^(t+1) of
    the lcm D of the denominators.
    """
    kind = draw(st.sampled_from(kinds))
    if kind == "Q":
        field, coeffs = QQ, st.integers(-9, 9)
    elif kind == "Q/":
        field, coeffs = QQ, rationals(9, 6)
    elif kind == "Qbig":
        field, coeffs = QQ, rationals(10 ** 6, 10 ** 3)
    else:
        field = FINITE[kind]
        coeffs = st.integers(0, field.order - 1)
    terms = draw(st.dictionaries(MONOMIALS, coeffs, min_size=1, max_size=4))
    return FixedPointProblem(BiPoly(field, terms)), draw(st.integers(1, 24))


# sparse monomials of high degree: for N <= 16 many lie past the box of
# the diagonal sweep, or have 2a + b > 2N
FAR_MONOMIALS = st.tuples(st.integers(0, 40), st.integers(0, 60)).filter(
    lambda ab: 2 * ab[0] + ab[1] >= 2)


@st.composite
def far_reaching_problems(draw):
    """(P, N) over F2..F9, or over Q with a denominator lcm D > 1 in the box,
    P mixing MONOMIALS with FAR_MONOMIALS, N up to 16."""
    kind = draw(st.sampled_from(["Q", "F2", "F3", "F4", "F5", "F7", "F8",
                                 "F9"]))
    if kind == "Q":
        field, coeffs = QQ, rationals(9, 12)
    else:
        field = FINITE[kind]
        coeffs = st.integers(0, field.order - 1)
    terms = draw(st.dictionaries(MONOMIALS, coeffs, min_size=1, max_size=3))
    terms.update(draw(st.dictionaries(FAR_MONOMIALS, coeffs, max_size=2)))
    if field is QQ:
        # X, Y^2 and X*Y land in the box of every N >= 1
        key = draw(st.sampled_from([(1, 0), (0, 2), (1, 1)]))
        terms[key] = draw(st.fractions(-9, 9, max_denominator=12).filter(
            lambda c: c.denominator > 1))
    return FixedPointProblem(BiPoly(field, terms)), draw(st.integers(1, 16))


@st.composite
def partial_sum_cases(draw):
    """(P, n, m_max): P of fixed_point_problems plus one FAR_MONOMIALS term,
    0 <= n <= 6 and 1 <= m_max <= 2n + 3."""
    prob, _ = draw(fixed_point_problems())
    field = prob.field
    far = {draw(FAR_MONOMIALS): field.from_int(draw(st.integers(1, 6)))}
    n = draw(st.integers(0, 6))
    return (FixedPointProblem(prob.poly + BiPoly(field, far)), n,
            draw(st.integers(1, 2 * n + 3)))


class TestAgainstEarlierAlgorithms:
    @given(fixed_point_problems())
    def test_newton_oracle_matches_substitution(self, case):
        prob, N = case
        assert list(fixed_point_coefficients(prob, N).coeffs) == \
            substitution_oracle(prob, N)

    @given(fixed_point_problems())
    def test_fs_coefficients_match_relaxed_sweep(self, case):
        prob, N = case
        assert list(fs_coefficients(prob, N).coeffs) == \
            relaxed_fs_coefficients(prob, N)

    @given(far_reaching_problems())
    def test_diagonal_sweep_matches_oracle_and_relaxed_sweep(self, case):
        prob, N = case
        f = fs_coefficients(prob, N)
        assert f == fixed_point_coefficients(prob, N)
        assert list(f.coeffs) == relaxed_fs_coefficients(prob, N)

    @given(fixed_point_problems())
    def test_partial_sums_reach_fs_coefficients(self, case):
        # the per-m sum stops changing at m = 2n - 1, where it is f_n
        prob, N = case
        f = fs_coefficients(prob, N).coeffs
        for n in range(1, min(N, 8) + 1):
            assert fs_partial_sum(prob, n, 2 * n - 1) == f[n]

    @given(partial_sum_cases())
    def test_partial_sum_matches_full_powers(self, case):
        # the formula read literally, on untruncated powers of P
        prob, n, m_max = case
        field, poly = prob.field, prob.poly
        w = BiPoly.one(field) - derivative_y(poly)
        expect = field.zero
        for m in range(1, m_max + 1):
            cell = (w * poly ** m).terms.get((n, m - 1), field.zero)
            expect = field.add(expect, cell)
        assert fs_partial_sum(prob, n, m_max) == expect


def reduce_mod(field, c):
    """The rational c in F_p; its denominator must be prime to p."""
    c = Fraction(c)
    return field.div(field.from_int(c.numerator), field.from_int(c.denominator))


@st.composite
def p_integral_problems(draw):
    """(P over Q, p, N): the denominators of P are prime to p, N up to 48."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13, 101]))
    coeffs = st.builds(Fraction, st.integers(-9, 9),
                       st.sampled_from([d for d in range(1, 13) if d % p]))
    terms = draw(st.dictionaries(MONOMIALS, coeffs.map(
        lambda c: c.numerator if c.denominator == 1 else c),
        min_size=1, max_size=4))
    return BiPoly(QQ, terms), p, draw(st.integers(1, 48))


class TestValidForAllFields:
    """The formula holds over every field: f over Q is p-integral when the
    denominators of P are prime to p, and reduced mod p it is f over F_p of
    P mod p."""

    @given(p_integral_problems())
    def test_reduction_commutes_with_extraction(self, case):
        P, p, N = case
        field = GF(p)
        P_p = BiPoly(field, {k: reduce_mod(field, c)
                             for k, c in P.terms.items()})
        over_q = fs_coefficients(FixedPointProblem(P), N).coeffs
        over_p = fs_coefficients(FixedPointProblem(P_p), N).coeffs
        assert [reduce_mod(field, c) for c in over_q] == list(over_p)

    @pytest.mark.parametrize("p", [2, 11, 13, 101])
    def test_mixed_denominators(self, p):
        text = "1/3*X - 2/5*X*Y + 3/7*Y^2 + X^2*Y"
        over_q = fs_coefficients(problem(text, QQ), 200).coeffs
        over_p = fs_coefficients(problem(text, GF(p)), 200).coeffs
        assert [reduce_mod(GF(p), c) for c in over_q] == list(over_p)


def doubling_hensel_root(P, a0, order):
    """The Newton lift that inverts the slope from scratch at every step."""
    field = P.field
    PY = derivative_y(P)
    f = TruncSeries1(field, [a0], 0)
    prec = 1
    while prec <= order:
        prec = min(2 * prec, order + 1)
        f = TruncSeries1(field, f.coeffs, prec - 1)
        value = eval_bipoly_at_series(P, f)
        slope = eval_bipoly_at_series(PY, f)
        f = f - value * slope.inverse()
    return f


@st.composite
def simple_roots(draw):
    """(P, a0, order): P = s(Y - a0) + c(Y - a0)^2 + X R(X, Y), s != 0."""
    kind = draw(st.sampled_from([*FINITE, "Q"]))
    if kind == "Q":
        field, coeffs = QQ, rationals(9, 6)
    else:
        field = FINITE[kind]
        coeffs = st.integers(0, field.order - 1)
    a0, c = draw(coeffs), draw(coeffs)
    slope = draw(coeffs.filter(bool))
    rest = draw(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                                coeffs, max_size=4))
    shifted = BiPoly(field, {(0, 1): field.one, (0, 0): field.neg(a0)})
    P = (shifted.scale(slope) + (shifted * shifted).scale(c)
         + BiPoly(field, rest).mul_monomial(1, 0))
    return P, a0, draw(st.integers(0, 40))


class TestCarriedInverse:
    @given(simple_roots())
    def test_hensel_root_matches_doubling_inverse(self, case):
        P, a0, order = case
        f = hensel_root(P, a0, order)
        assert f == doubling_hensel_root(P, a0, order)
        assert eval_bipoly_at_series(P, f).is_zero()


# -- the certificate that extract --check runs --------------------------------

@st.composite
def certificate_cases(draw):
    """(field, terms of P, N, c) over F_p (p = 2, 5, 31), F_{p^k} (4, 8, 9)
    or Q, with 2 <= N <= 24.  P has a nonzero X term, so f_1 != 0, and c is
    nonzero; over Q both have a denominator > 1, so D > 1 at every N."""
    kind = draw(st.sampled_from(["Q", "F2", "F5", "F31", "F4", "F8", "F9"]))
    if kind == "Q":
        field, coeffs = QQ, rationals(9, 12)
        nonzero = st.fractions(-9, 9, max_denominator=12).filter(
            lambda c: c.denominator > 1)
    else:
        field = FINITE[kind]
        coeffs, nonzero = (st.integers(0, field.order - 1),
                           st.integers(1, field.order - 1))
    terms = draw(st.dictionaries(MONOMIALS, coeffs, max_size=3))
    terms[(1, 0)] = draw(nonzero)
    return field, terms, draw(st.integers(2, 24)), draw(nonzero)


class TestCertificate:
    """is_fixed_point: f_0 = 0 and P(X, f) = f mod X^(N+1)."""

    @given(certificate_cases())
    def test_accepts_fs_coefficients_and_no_changed_coefficient(self, case):
        field, terms, N, c = case
        prob = FixedPointProblem(BiPoly(field, terms))
        f = fs_coefficients(prob, N)
        assert is_fixed_point(prob, f)
        for n in range(1, N + 1):
            changed = list(f.coeffs)
            changed[n] = field.add(changed[n], c)
            assert not is_fixed_point(prob, TruncSeries1(field, changed))

    @given(certificate_cases())
    def test_rejects_a_solution_with_nonzero_constant_term(self, case):
        # Y = P(0, Y) = c*Y^2 has the simple root 1/c beside 0, so
        # P(X, h) = h also has the solution h with h_0 = 1/c
        field, terms, N, c = case
        P = BiPoly(field, {(0, 2): c}) + BiPoly(field, terms).mul_monomial(1, 0)
        h = hensel_root(BiPoly.y(field) - P, field.inv(c), N)
        assert eval_bipoly_at_series(P, h) == h
        assert not is_fixed_point(FixedPointProblem(P), h)

    @given(certificate_cases(), st.data())
    def test_keeps_the_terms_with_a_plus_b_equal_to_n(self, case, data):
        # the one term X^a Y^b with a + b = N adds c*f_1^b to [X^N] P(X, f)
        field, terms, N, c = case
        a = data.draw(st.integers(0, N))
        terms = {key: v for key, v in terms.items() if sum(key) != N}
        terms[(a, N - a)] = c
        prob = FixedPointProblem(BiPoly(field, terms))
        assert is_fixed_point(prob, fs_coefficients(prob, N))
