import pytest

from algseries import (QQ, BiPoly, cartier_bi, diagonal_automaton,
                       kernel_output, parse_poly, rational_kernel,
                       series_expand_ratio)
from algseries.errors import DigitOutOfRange, InfiniteField, ZeroConstantTerm

from conftest import F2, F3, F4, binomial, random_bipoly


class TestCartierBi:
    def test_examples(self):
        assert cartier_bi(parse_poly("X*Y", F2), 1, 1) == BiPoly.one(F2)
        assert cartier_bi(parse_poly("X^2*Y", F2), 0, 1) == parse_poly("X", F2)
        Q = parse_poly("1+X+Y", F2)
        assert cartier_bi(Q, 0, 0) == BiPoly.one(F2)
        assert cartier_bi(Q, 1, 0) == BiPoly.one(F2)
        assert cartier_bi(Q, 0, 1) == BiPoly.one(F2)
        assert cartier_bi(Q, 1, 1).is_zero()

    def test_digit_selection(self):
        # digit sections of polynomials in X alone
        x = parse_poly("X", F2)
        assert cartier_bi(x, 1, 0) == BiPoly.one(F2)
        assert cartier_bi(x, 0, 0).is_zero()
        assert cartier_bi(x, 1, 1).is_zero()
        assert cartier_bi(parse_poly("X^2", F2), 0, 0) == x

    def test_coefficient_contract(self, rng):
        for field in (F2, F3, F4):
            q = field.order
            for _ in range(20):
                A = random_bipoly(field, rng, max_deg=9, max_terms=12)
                r, s = rng.randrange(q), rng.randrange(q)
                out = cartier_bi(A, r, s)
                for m in range(4):
                    for n in range(4):
                        assert out.terms.get((m, n)) == \
                            A.terms.get((q * m + r, q * n + s))

    def test_errors(self):
        with pytest.raises(DigitOutOfRange):
            cartier_bi(parse_poly("X", F2), 2, 0)
        with pytest.raises(DigitOutOfRange):
            cartier_bi(parse_poly("X", F2), 0, 2)
        with pytest.raises(InfiniteField):
            cartier_bi(parse_poly("X", QQ), 0, 0)

    def test_lemma1_identity(self, rng):
        # Lambda_{r,s}(A^q B) = A Lambda_{r,s}(B) over F_2 and F_4
        for field in (F2, F4):
            q = field.order
            for _ in range(40):
                A = random_bipoly(field, rng, max_deg=2)
                B = random_bipoly(field, rng, max_deg=3)
                r, s = rng.randrange(q), rng.randrange(q)
                lhs = cartier_bi((A ** q) * B, r, s)
                rhs = A * cartier_bi(B, r, s)
                assert lhs == rhs


class TestRationalKernel:
    def test_two_state_example(self):
        k = rational_kernel(BiPoly.one(F2), parse_poly("1+X+Y", F2))
        assert k.n_states == 2
        assert k.states[0] == BiPoly.one(F2)
        assert k.states[1].is_zero()
        # digits (r, s) indexed r + q*s: (0,0),(1,0) fix; (0,1) fixes; (1,1) kills
        assert k.transitions[0] == [0, 0, 0, 1]
        assert k.transitions[1] == [1, 1, 1, 1]

    def test_zero_numerator(self):
        k = rational_kernel(BiPoly.zero(F2), parse_poly("1+X", F2))
        assert k.n_states == 1
        assert k.states[0].is_zero()
        assert k.transitions == [[0, 0, 0, 0]]

    def test_requires_finite_field_and_unit(self):
        with pytest.raises(InfiniteField):
            rational_kernel(BiPoly.one(QQ), parse_poly("1+X+Y", QQ))
        with pytest.raises(ZeroConstantTerm):
            rational_kernel(BiPoly.one(F2), parse_poly("X+Y", F2))

    def test_degree_bound_and_coefficients(self, rng):
        for _ in range(8):
            P = random_bipoly(F2, rng, max_deg=2)
            den = random_bipoly(F2, rng, max_deg=2)
            terms = dict(den.terms)
            terms[(0, 0)] = F2.one
            den = BiPoly(F2, terms)
            k = rational_kernel(P, den)
            bound = k.degree_bound
            for state in k.states[1:]:
                assert state.total_degree < max(bound, 1)
            # brute-force coefficient check against the series expansion
            S = series_expand_ratio(P, den, 9)
            dfao = k.to_dfao()
            for m in range(10):
                for n in range(10):
                    assert dfao.run_raw((m, n)) == S.get(m, n)

    def test_size_bounded_by_polynomial_count(self, rng):
        # states live in {R/Q : deg R < a+b}, so at most q^(#monomials) + 1
        for _ in range(6):
            P = random_bipoly(F2, rng, max_deg=2)
            den = BiPoly(F2, {**random_bipoly(F2, rng, max_deg=2).terms,
                              (0, 0): F2.one})
            k = rational_kernel(P, den)
            bound = max(k.degree_bound, 1)
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
        assert k.output(0) == S.get(0, 0)


class TestDiagonalAutomaton:
    def test_central_binomial_mod_2(self):
        k = rational_kernel(BiPoly.one(F2), parse_poly("1+X+Y", F2))
        d = diagonal_automaton(k)
        assert d.arity == 1 and d.n_states == 2
        got = [d.run_raw(n) for n in range(17)]
        want = [binomial(2 * n, n) % 2 for n in range(17)]
        assert got == want

    def test_zero_kernel(self):
        k = rational_kernel(BiPoly.zero(F2), parse_poly("1+Y", F2))
        d = diagonal_automaton(k)
        assert d.generate(10).is_zero()

    def test_diagonal_matches_expansion(self, rng):
        for _ in range(5):
            P = random_bipoly(F3, rng, max_deg=2)
            den = BiPoly(F3, {**random_bipoly(F3, rng, max_deg=2).terms,
                              (0, 0): F3.one})
            k = rational_kernel(P, den)
            d = diagonal_automaton(k)
            S = series_expand_ratio(P, den, 12)
            for n in range(13):
                assert d.run_raw(n) == S.get(n, n)
