import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from algseries import (DFAO, GF, QQ, BiPoly, degree_bound, kernel_output,
                       parse_poly, rational_kernel, sections,
                       series_expand_ratio)
from algseries.cartier import close, numerator_images
from algseries.errors import (InfiniteField, StateBudgetExceeded,
                              ZeroConstantTerm)

from conftest import F2, F3, F4, F5, F8, F9, binomial, random_bipoly


def section(A, r, s):
    """Lambda_{r,s}(A) alone, the section at symbol r + q*s."""
    return sections(A, [r + A.field.order * s])[0]


def reference_sections(A, symbols):
    """Per-term reference: for each symbol, every term (i, j) of A with
    i = r mod q and j = s mod q moves to (i // q, j // q)."""
    q = A.field.order
    out = []
    for sym in symbols:
        r, s = sym % q, sym // q
        out.append(BiPoly(A.field, {
            ((i - r) // q, (j - s) // q): c
            for (i, j), c in A.terms.items()
            if (i - r) % q == 0 and (j - s) % q == 0}))
    return out


def bipolys(field, max_degree, max_size):
    degree = st.integers(0, max_degree)
    return st.dictionaries(st.tuples(degree, degree),
                           st.integers(0, field.order - 1),
                           max_size=max_size).map(lambda t: BiPoly(field, t))


@st.composite
def sections_case(draw):
    """Over F2, F3, F4 or F9: a sparse A (X- and Y-degrees up to 10^3), a
    small D and a list of symbols, possibly repeated or empty."""
    field = draw(st.sampled_from([F2, F3, F4, F9]))
    q = field.order
    A = draw(bipolys(field, 1000, 30))
    D = draw(bipolys(field, 4, 4))
    symbols = draw(st.lists(st.integers(0, q * q - 1), max_size=2 * q * q))
    return A, D, symbols


class TestCartierBi:
    """Bivariate digit sections Lambda_{r,s}, taken through sections."""

    def test_examples(self):
        assert section(parse_poly("X*Y", F2), 1, 1) == BiPoly.one(F2)
        assert section(parse_poly("X^2*Y", F2), 0, 1) == parse_poly("X", F2)
        Q = parse_poly("1+X+Y", F2)
        assert sections(Q, range(4)) == [BiPoly.one(F2), BiPoly.one(F2),
                                         BiPoly.one(F2), BiPoly.zero(F2)]

    def test_digit_selection(self):
        # digit sections of polynomials in X alone
        x = parse_poly("X", F2)
        assert section(x, 1, 0) == BiPoly.one(F2)
        assert section(x, 0, 0).is_zero()
        assert section(x, 1, 1).is_zero()
        assert section(parse_poly("X^2", F2), 0, 0) == x

    def test_coefficient_contract(self, rng):
        for field in (F2, F3, F4):
            q = field.order
            for _ in range(20):
                A = random_bipoly(field, rng, max_deg=9, max_terms=12)
                r, s = rng.randrange(q), rng.randrange(q)
                out = section(A, r, s)
                for m in range(4):
                    for n in range(4):
                        assert out.terms.get((m, n)) == \
                            A.terms.get((q * m + r, q * n + s))

    def test_errors(self):
        with pytest.raises(InfiniteField):
            sections(parse_poly("X", QQ), [0])
        with pytest.raises(InfiniteField):
            numerator_images(parse_poly("1+X", QQ), [0])

    def test_lemma1_identity(self, rng):
        # Lambda_{r,s}(A^q B) = A Lambda_{r,s}(B) over F_2 and F_4
        for field in (F2, F4):
            q = field.order
            for _ in range(40):
                A = random_bipoly(field, rng, max_deg=2)
                B = random_bipoly(field, rng, max_deg=3)
                symbols = [rng.randrange(q * q) for _ in range(3)]
                lhs = sections((A ** q) * B, symbols)
                rhs = [A * out for out in sections(B, symbols)]
                assert lhs == rhs


@given(sections_case())
def test_sections_match_per_term_reference(case):
    A, _, symbols = case
    assert sections(A, symbols) == reference_sections(A, symbols)


@given(sections_case())
def test_numerator_images_sections_the_product(case):
    A, D, symbols = case
    images = numerator_images(D, symbols)
    assert images(A) == sections(A * D ** (D.field.order - 1), symbols)


class TestWorkBudget:
    def test_each_product_is_charged_before_it_runs(self):
        # D = 1 + X + Y over F2: D^(q-1) = D costs 1 * 3 term products, and
        # the image of a 3-term A costs 3 * 3 more
        D, A = parse_poly("1+X+Y", F2), parse_poly("1+X+Y", F2)
        symbols = range(0, 4, 3)
        assert numerator_images(D, symbols, work=12)(A) == \
            numerator_images(D, symbols)(A)
        images = numerator_images(D, symbols, work=11)
        with pytest.raises(StateBudgetExceeded):
            images(A)

    def test_power_is_charged(self):
        # over F31 the power D^30 has thousands of terms; the budget stops
        # it within its first squarings
        D = parse_poly("1 - X - 2*Y - X*Y^3 - X^2*Y^2", GF(31))
        with pytest.raises(StateBudgetExceeded):
            numerator_images(D, range(0, 31 * 31, 32), work=1000)

    def test_budget_leaves_the_automaton_unchanged(self):
        P, Q = parse_poly("1+X", F3), parse_poly("1 - X - Y - X*Y", F3)
        for diagonal in (False, True):
            assert rational_kernel(P, Q, diagonal, work=10 ** 6) == \
                rational_kernel(P, Q, diagonal)


class TestRationalKernel:
    def test_two_state_example(self):
        k = rational_kernel(BiPoly.one(F2), parse_poly("1+X+Y", F2))
        assert k.arity == 2 and k.n_states == 2
        assert k.labels == ("1", "0") and k.outputs == (1, 0)
        # digits (r, s) indexed r + q*s: (0,0),(1,0) fix; (0,1) fixes; (1,1) kills
        assert k.transitions[0] == (0, 0, 0, 1)
        assert k.transitions[1] == (1, 1, 1, 1)

    def test_zero_numerator(self):
        k = rational_kernel(BiPoly.zero(F2), parse_poly("1+X", F2))
        assert k.labels == ("0",)
        assert k.transitions == ((0, 0, 0, 0),)

    def test_requires_finite_field_and_unit(self):
        for diagonal in (False, True):
            with pytest.raises(InfiniteField):
                rational_kernel(BiPoly.one(QQ), parse_poly("1+X+Y", QQ),
                                diagonal)
            with pytest.raises(ZeroConstantTerm):
                rational_kernel(BiPoly.one(F2), parse_poly("X+Y", F2),
                                diagonal)

    def test_degree_bound_and_coefficients(self, rng):
        for _ in range(8):
            P = random_bipoly(F2, rng, max_deg=2)
            den = random_bipoly(F2, rng, max_deg=2)
            terms = dict(den.terms)
            terms[(0, 0)] = F2.one
            den = BiPoly(F2, terms)
            k = rational_kernel(P, den)
            bound = degree_bound(P, den)
            for label in k.labels[1:]:
                assert parse_poly(label, F2).total_degree < max(bound, 1)
            # brute-force coefficient check against the series expansion
            S = series_expand_ratio(P, den, 9)
            for m in range(10):
                for n in range(10):
                    assert k.run_raw((m, n)) == S.get(m, n)

    def test_size_bounded_by_polynomial_count(self, rng):
        # states live in {R/Q : deg R < a+b}, so at most q^(#monomials) + 1
        for _ in range(6):
            P = random_bipoly(F2, rng, max_deg=2)
            den = BiPoly(F2, {**random_bipoly(F2, rng, max_deg=2).terms,
                              (0, 0): F2.one})
            k = rational_kernel(P, den)
            bound = max(degree_bound(P, den), 1)
            monomials = bound * (bound + 1) // 2
            assert k.n_states <= 2 ** monomials + 1

    def test_kernel_output(self):
        Q = parse_poly("1+X+Y", F2)
        assert kernel_output(BiPoly.one(F2), Q) == F2.one
        assert kernel_output(BiPoly.zero(F2), Q) == F2.zero
        assert kernel_output(parse_poly("X+1", F2), Q) == F2.one

    def test_output_is_series_constant_over_f3(self):
        Q = parse_poly("2+X+Y", F3)
        P = parse_poly("1+X", F3)
        k = rational_kernel(P, Q)
        S = series_expand_ratio(P, Q, 0)
        assert k.outputs[0] == S.get(0, 0)


class TestDiagonalAutomaton:
    def test_central_binomial_mod_2(self):
        d = rational_kernel(BiPoly.one(F2), parse_poly("1+X+Y", F2),
                            diagonal=True)
        assert d.arity == 1 and d.n_states == 2
        got = [d.run_raw(n) for n in range(17)]
        want = [binomial(2 * n, n) % 2 for n in range(17)]
        assert got == want

    def test_zero_kernel(self):
        d = rational_kernel(BiPoly.zero(F2), parse_poly("1+Y", F2),
                            diagonal=True)
        assert d.generate(10).is_zero()

    def test_diagonal_matches_expansion(self, rng):
        for _ in range(5):
            P = random_bipoly(F3, rng, max_deg=2)
            den = BiPoly(F3, {**random_bipoly(F3, rng, max_deg=2).terms,
                              (0, 0): F3.one})
            d = rational_kernel(P, den, diagonal=True)
            S = series_expand_ratio(P, den, 12)
            for n in range(13):
                assert d.run_raw(n) == S.get(n, n)

    def test_closes_far_fewer_states_than_the_pairs(self):
        # the pair closure of this F5 input exceeds STATE_BUDGET; the
        # diagonal sections alone close in 6345 states
        P = parse_poly("2*X^2*Y^2", F5)
        Q = parse_poly("1 + 3*X^3 + 4*X*Y^2 + 4*X^2*Y^3", F5)
        d = rational_kernel(P, Q, diagonal=True)
        assert d.n_states == 6345
        S = series_expand_ratio(P, Q, 40)
        assert [d.run_raw(n) for n in range(41)] == [S.get(n, n)
                                                    for n in range(41)]


@st.composite
def kernel_case(draw):
    """num/den over F2..F9 of degree <= 3 in each variable, den(0,0) != 0."""
    field = draw(st.sampled_from([F2, F3, F4, F5, F8, F9]))
    coeff = st.integers(1, field.order - 1)
    monomial = st.tuples(st.integers(0, 3), st.integers(0, 3))
    num = draw(st.dictionaries(monomial, coeff, max_size=4))
    den = draw(st.dictionaries(monomial, coeff, max_size=4))
    den[0, 0] = draw(coeff)
    return BiPoly(field, num), BiPoly(field, den)


@settings(max_examples=60)
@given(kernel_case())
def test_diagonal_closure_is_the_projected_pair_closure(case):
    # Delta(Lambda_{r,r} F) = Lambda_r(Delta F): the closure under the q
    # diagonal sections and the (r, r) rows of the closure under all q^2
    # sections read the same sequence, so they minimize to one automaton
    P, Q = case
    q = Q.field.order
    try:
        close(P, numerator_images(Q, range(q * q)), 1000, "pair closure")
    except StateBudgetExceeded:
        assume(False)
    pairs = rational_kernel(P, Q)
    projected = DFAO(q, Q.field, 0, [[row[r * (q + 1)] for r in range(q)]
                                     for row in pairs.transitions], pairs.outputs)
    assert rational_kernel(P, Q, diagonal=True).minimize() == \
        projected.minimize()
