import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from algseries import (DFAO, GF, TruncSeries1, UniPoly, frobenius_relation,
                       null_left_vector, parse_poly, verify_relation)
from algseries.annihilator import (FrobeniusRelation, _kernel_rows,
                                   canonical_relation)
from algseries.automaton import from_json
from algseries.errors import (BaseMismatch, DegreeBlowup, InsufficientPrecision,
                              NoRelation)

from conftest import F2, F3, F4, F8, F9, thue_morse
from ratfn import RationalFn


def uni(field, text):
    return parse_poly(text, field).as_unipoly_x()


def tm_automaton():
    return DFAO(2, F2, 0, [(0, 1), (1, 0)], [0, 1])


def tm_series(order=256):
    return TruncSeries1(F2, [thue_morse(n) for n in range(order + 1)], order)


FIVE_STATE = DFAO(2, F2, 0, [(1, 1), (2, 3), (1, 4), (3, 3), (4, 4)],
                  [0, 0, 0, 1, 0])
F3_CYCLE = DFAO(3, GF(3), 0, [(0, 1, 1), (1, 0, 2), (2, 2, 0)], [0, 1, 2])


def rows_coeffs(rows):
    return [[c.coeffs for c in row] for row in rows]


class TestKernelMatrix:
    """The kernel matrix A(X) enters annihilate only through the rows B_k,
    the initial state's rows of prod_{i=k}^{d} A(X^(q^i)), k = 0..d."""

    def test_thue_morse_matrix(self):
        # A(X) = ((1, X), (X, 1)), d = 2: B_2 is the first row of A(X^4)
        rows = _kernel_rows(tm_automaton())
        assert rows == [
            [uni(F2, "1+X^3+X^5+X^6"), uni(F2, "X+X^2+X^4+X^7")],
            [uni(F2, "1+X^6"), uni(F2, "X^2+X^4")],
            [UniPoly.one(F2), uni(F2, "X^4")]]

    def test_single_state_all_loops(self):
        a = DFAO(2, F2, 0, [(0, 0)], [1])
        assert _kernel_rows(a) == [[uni(F2, "(1+X)*(1+X^2)")],
                                   [uni(F2, "1+X^2")]]

    def test_row_exponents_partition_digits(self):
        # B_k[j] sums X^(r_k*q^k + ... + r_d*q^d) over the digit strings
        # r_k..r_d that lead to state j, and each string leads to one state
        for a in (tm_automaton(), FIVE_STATE, F3_CYCLE):
            d = a.n_states
            for k, row in enumerate(_kernel_rows(a)):
                seen = []
                for entry in row:
                    assert set(entry.coeffs) <= {0, 1}
                    seen += [n for n, c in enumerate(entry.coeffs) if c]
                assert sorted(seen) == list(range(0, a.q ** (d + 1), a.q ** k))

    def test_base_mismatch(self):
        with pytest.raises(BaseMismatch, match="digit base 2 differs from "
                                               "field cardinality 4"):
            frobenius_relation(DFAO(2, F4, 0, [(0, 0)], [1]))
        with pytest.raises(BaseMismatch, match="one-dimensional"):
            frobenius_relation(DFAO(2, F2, 0, [(0, 0, 0, 0)], [1], arity=2))

    def test_matrix_identity_on_truncations(self):
        # sum_j B_k[j] * G_j(X^(q^(d+1))) = G_1(X)^(q^k) mod X^129
        for a in (tm_automaton(), FIVE_STATE, F3_CYCLE):
            order, d = 128, a.n_states
            G = [DFAO(a.q, a.field, i, a.transitions, a.outputs).generate(order)
                 for i in range(d)]
            for k, row in enumerate(_kernel_rows(a)):
                acc = TruncSeries1.zeros(a.field, order)
                for j, entry in enumerate(row):
                    acc = acc + G[j].spread(a.q ** (d + 1)).mul_poly(entry)
                assert acc == G[0].spread(a.q ** k)


def constant_terms(automaton):
    """c_s = out(s) - out(delta(s, 0)), by which the kernel identity
    G_s(X) = sum_r X^r G_delta(s, r)(X^q) fails at n = 0."""
    field, out = automaton.field, automaton.outputs
    return [field.sub(out[s], out[row[0]])
            for s, row in enumerate(automaton.transitions)]


def reference_kernel_rows(automaton):
    """B_0..B_d from dense products of the kernel matrices A(X^(q^k)), as
    annihilate formed them before it built the rows by recurrence; when
    some c_s != 0 (constant_terms), of A' = [[A, c], [0, 1]], and d
    counts the constant coordinate."""
    field, q, d = automaton.field, automaton.q, automaton.n_states
    c = constant_terms(automaton)
    entries = []
    for i in range(d):
        row = [[field.zero] * q for _ in range(d)]
        for r in range(q):
            row[automaton.transitions[i][r]][r] = field.one
        entries.append([UniPoly(field, cell) for cell in row])
    if any(c):
        for i, x in enumerate(c):
            entries[i].append(UniPoly(field, [x]))
        entries.append([UniPoly.zero(field)] * d + [UniPoly.one(field)])
        d += 1

    def subst(e):
        return [[p.subst_power(e) for p in row] for row in entries]

    def matmul(A, B):
        out = []
        for i in range(d):
            out.append([])
            for j in range(d):
                acc = UniPoly.zero(field)
                for k in range(d):
                    acc = acc + A[i][k] * B[k][j]
                out[i].append(acc)
        return out

    prod = subst(q ** d)
    rows = [prod[0]]
    for k in range(d - 1, -1, -1):
        prod = matmul(subst(q ** k), prod)
        rows.append(prod[0])
    return rows[::-1]


@st.composite
def digit_automata(draw):
    """Automata over F2 with up to six states, over F3, F4 and F5 with up
    to four, and over F8 and F9 with up to two."""
    field = draw(st.sampled_from([F2, F3, F4, GF(5), F8, F9]))
    q = field.order
    n = draw(st.integers(1, {2: 6, 8: 2, 9: 2}.get(q, 4)))
    state = st.integers(0, n - 1)
    transitions = draw(st.lists(st.lists(state, min_size=q, max_size=q),
                                min_size=n, max_size=n))
    outputs = draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    return DFAO(q, field, 0, transitions, outputs)


@st.composite
def zero_stable_automata(draw):
    """digit_automata with outputs made constant along 0-transitions, as
    every automaton the toolkit writes has them: each state takes the
    output of the least state on the 0-cycle its 0-path ends in."""
    automaton = draw(digit_automata())
    delta = automaton.transitions
    outputs = []
    for s in range(automaton.n_states):
        path, cur = [], s
        while cur not in path:
            path.append(cur)
            cur = delta[cur][0]
        outputs.append(automaton.outputs[min(path[path.index(cur):])])
    return DFAO(automaton.q, automaton.field, 0, delta, outputs)


def coordinates(automaton):
    """States of the minimized automaton, one more when the kernel rows
    need the constant coordinate."""
    minimized = automaton.minimize()
    return minimized.n_states + any(constant_terms(minimized))


@given(digit_automata())
def test_kernel_rows_match_matrix_products(automaton):
    assert rows_coeffs(_kernel_rows(automaton)) == \
        rows_coeffs(reference_kernel_rows(automaton))


@given(zero_stable_automata())
def test_zero_stable_rows_have_one_column_per_state(automaton):
    # no constant coordinate: the rows, and so the relations, are those of
    # the kernel matrix A alone
    assert not any(constant_terms(automaton))
    rows = _kernel_rows(automaton)
    assert len(rows) == automaton.n_states + 1
    assert all(len(row) == automaton.n_states for row in rows)
    assert rows_coeffs(rows) == rows_coeffs(reference_kernel_rows(automaton))


@settings(max_examples=60)
@given(digit_automata())
def test_relation_for_any_automaton(automaton):
    # outputs may change along 0-transitions
    assume(coordinates(automaton) <= (6 if automaton.q == 2 else 3))
    rel = frobenius_relation(automaton)
    assert verify_relation(rel, automaton.generate(256 + rel.max_coeff_degree()))
    # f = 0 exactly for the zero series: an n-state automaton reaches each
    # state it reaches within n - 1 digits, so the indices below q^n show it
    zero = automaton.generate(automaton.q ** automaton.n_states).is_zero()
    assert (rel.to_text() == "f = 0") == zero


def combine(combo, rows, col):
    """sum_i combo[i] * rows[i][col]."""
    acc = UniPoly.zero(rows[0][0].field)
    for c, row in zip(combo, rows):
        acc = acc + c * row[col]
    return acc


class TestNullLeftVector:
    def test_two_equal_rows(self):
        one = UniPoly.one(F2)
        combo = null_left_vector([[one], [one]])
        assert combo is not None
        # c0 * 1 + c1 * 1 = 0 with c != 0
        assert (combo[0] + combo[1]).is_zero()
        assert not (combo[0].is_zero() and combo[1].is_zero())

    def test_x_and_x_squared(self):
        combo = null_left_vector([[uni(F2, "X")], [uni(F2, "X^2")]])
        # proportional to (X, 1)
        assert combo[0] == combo[1] * uni(F2, "X")

    def test_independent_rows_give_none(self):
        one, zero = UniPoly.one(F2), UniPoly.zero(F2)
        assert null_left_vector([[one, zero], [zero, one]]) is None

    def test_combination_annihilates(self, rng):
        # more rows than columns always yields a null combination
        for _ in range(10):
            rows = []
            for _ in range(3):
                rows.append([UniPoly(F2, [rng.randrange(2) for _ in range(3)])
                             for _ in range(2)])
            combo = null_left_vector(rows)
            assert combo is not None
            for col in range(2):
                assert combine(combo, rows, col).is_zero()


def reference_null_left_vector(rows):
    """Elimination over F_q(X) with leftmost pivots, as annihilate ran it
    before its fraction-free pass: every row scaled to a unit pivot."""
    field = rows[0][0].field
    one, zero = RationalFn.one(field), RationalFn.zero(field)
    pivots = {}
    for i, row in enumerate(rows):
        work = list(row)
        combo = [zero] * len(rows)
        combo[i] = one
        for col in range(len(row)):
            if work[col].is_zero():
                continue
            hit = pivots.get(col)
            if hit is None:
                inv = work[col].inverse()
                pivots[col] = ([w * inv for w in work], [c * inv for c in combo])
                work = None
                break
            prow, pcombo = hit
            factor = work[col]
            work = [w - factor * pw for w, pw in zip(work, prow)]
            combo = [c - factor * pc for c, pc in zip(combo, pcombo)]
        if work is not None:
            return combo
    return None


def reference_relation(fractions, q):
    """Canonical relation of a vector over F_q(X): denominators cleared by
    their lcm, then canonical_relation."""
    lcm = UniPoly.one(fractions[0].field)
    for frac in fractions:
        lcm = lcm * (frac.den // lcm.gcd(frac.den))
    return canonical_relation([f.num * (lcm // f.den) for f in fractions], q)


@st.composite
def polynomial_rows(draw):
    """Up to five rows of one to three polynomials, some zero or repeated."""
    field = draw(st.sampled_from([F2, F3, F4]))
    ncols = draw(st.integers(1, 3))
    entry = st.lists(st.integers(0, field.order - 1), max_size=5).map(
        lambda c: UniPoly(field, c))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["random", "zero", "repeat"]))
        if kind == "zero":
            rows.append([UniPoly.zero(field)] * ncols)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
    return rows


@given(polynomial_rows())
def test_elimination_matches_prefix_search(rows):
    # the shortest prefix with a dependency over F_q(X), searched as
    # annihilate searched it, against the one fraction-free pass
    q = rows[0][0].field.order
    fractions = [[RationalFn.from_poly(p) for p in row] for row in rows]
    want = None
    for top in range(len(rows)):
        want = reference_null_left_vector(fractions[:top + 1])
        if want is not None:
            break
    combo = null_left_vector(rows)
    if want is None:
        assert combo is None
        return
    assert len(combo) == top + 1 and not combo[top].is_zero()
    for col in range(len(rows[0])):
        assert combine(combo, rows, col).is_zero()
    assert canonical_relation(combo, q) == reference_relation(want, q)


@settings(max_examples=30)
@given(digit_automata())
def test_relation_matches_reference_elimination(automaton):
    # the rows from one row vector and the packed elimination against the
    # dense matrix products and the elimination over F_q(X)
    field, q = automaton.field, automaton.q
    minimized = automaton.minimize()
    assume(coordinates(automaton) <= (6 if q == 2 else 3 if q < 8 else 2))
    assert minimized.initial == 0
    if automaton.generate(256).is_zero():
        want = FrobeniusRelation((UniPoly.one(field),), q)
    else:
        rows = reference_kernel_rows(minimized)
        combo = reference_null_left_vector(
            [[RationalFn.from_poly(p) for p in row] for row in rows])
        while combo[-1].is_zero():
            combo.pop()
        want = reference_relation(combo, q)
    assert frobenius_relation(automaton) == want


class TestFrobeniusRelation:
    def test_thue_morse_golden(self):
        rel = frobenius_relation(tm_automaton())
        assert rel.q == 2
        assert rel.coeffs == (uni(F2, "X"), uni(F2, "1+X"),
                              uni(F2, "(1+X)^4"))
        assert verify_relation(rel, tm_series())

    def test_fraction_form_clears_to_same_relation(self):
        # f^4 + f^2/(1+X)^3 + X f/(1+X)^4 = 0, cleared by a common multiple
        # X^2*(1+X)^5 of its denominators, not their lcm
        common = uni(F2, "X^2*(1+X)")
        cleared = [uni(F2, "X") * common, uni(F2, "1+X") * common,
                   uni(F2, "(1+X)^4") * common]
        rel = canonical_relation(cleared, 2)
        assert rel.coeffs == frobenius_relation(tm_automaton()).coeffs

    def test_constant_zero_automaton(self):
        zero = DFAO(2, F2, 0, [(0, 0)], [0])
        rel = frobenius_relation(zero)
        assert rel.coeffs == (UniPoly.one(F2),)
        assert rel.to_text() == "f = 0"

    def test_zero_through_index_624_is_not_zero(self):
        # c_n = 1 exactly when n >= 5^4: the series is zero to order 256,
        # the default check order, but state 5, where every index of five
        # or more digits ends, outputs 1
        a = from_json(json.dumps({
            "q": 5, "field": {"kind": "prime", "p": 5}, "initial": 0,
            "transitions": [[s + 1] * 5 for s in range(5)] + [[5] * 5],
            "outputs": ["0"] * 5 + ["1"]}))
        assert a.generate(624).is_zero() and not a.generate(625).is_zero()
        rel = frobenius_relation(a)
        assert rel.to_text() != "f = 0"
        series = a.generate(1024 + rel.max_coeff_degree())
        assert verify_relation(rel, series, check_order=1024)

    def test_state_entered_only_by_digit_0_ends_no_index(self):
        # state 1 outputs 1 but is entered by digit 0 alone, so it is never
        # the last state of an index: the series is zero, and minimizing
        # keeps both states
        a = DFAO(2, F2, 0, [(1, 0), (0, 0)], [0, 1])
        assert a.minimize().n_states == 2 and a.generate(256).is_zero()
        assert frobenius_relation(a).to_text() == "f = 0"

    def test_minimal_length_for_rational_series(self):
        # u_n = 1 for all n: f = 1/(1+X) over F_2 satisfies f + f^2 * (1+X) = 0
        ones = DFAO(2, F2, 0, [(0, 0)], [1])
        rel = frobenius_relation(ones)
        assert len(rel.coeffs) == 2
        assert verify_relation(rel, ones.generate(256))

    def test_degree_cap(self):
        n = 9
        a = DFAO(2, F2, 0, [((i + 1) % n, (i + 2) % n) for i in range(n)],
                 [i % 2 for i in range(n)])
        with pytest.raises(DegreeBlowup):
            frobenius_relation(a)

    def test_wrong_minimization_fails_the_check(self, monkeypatch):
        # the relation of the minimized automaton is checked on the series
        # of the automaton as given: 1/(1+X) does not satisfy Thue-Morse's
        ones = DFAO(2, F2, 0, [(0, 0)], [1])
        monkeypatch.setattr(DFAO, "minimize", lambda self: ones)
        with pytest.raises(NoRelation):
            frobenius_relation(tm_automaton())

    def test_outputs_change_along_zero_transition(self):
        # out(delta(0, 0)) != out(0): u_0 = 1 is read off state 0, but the
        # kernel row of digit 0 at n = 0 would read state 1
        a = DFAO(2, F2, 0, [(1, 0), (1, 1)], [1, 0])
        rel = frobenius_relation(a)
        assert verify_relation(rel, a.generate(256 + rel.max_coeff_degree()))

    def test_long_zero_cycle_is_paired_after_minimizing(self):
        # 3000 states that all output 1 minimize to the one state of
        # 1/(1+X) before the rows are built; 3000 are over KERNEL_SIZE_CAP
        n = 3000
        a = DFAO(2, F2, 0, [((s + 1) % n, (s + 1) % n) for s in range(n)],
                 [1] * n)
        ones = DFAO(2, F2, 0, [(0, 0)], [1])
        assert frobenius_relation(a) == frobenius_relation(ones)

    @pytest.mark.parametrize("field, transitions, outputs", [
        ('{"kind": "prime", "p": 5}',
         [[2, 2, 0, 0, 0], [0, 1, 1, 0, 2], [1, 1, 1, 0, 0]], ["0", "1", "4"]),
        ('{"kind": "extension", "p": 2, "k": 2, "modulus": "1+t+t^2"}',
         [[2, 0, 1, 1], [0, 2, 1, 0], [1, 0, 1, 1]], [[0, 1], [1], [1, 1]])])
    def test_constant_coordinate_within_the_cap(self, field, transitions,
                                                outputs):
        # 3 states whose outputs change along 0-transitions: 4 coordinates,
        # where pairing each state with the output before its 0-run gave 9
        # states, over KERNEL_SIZE_CAP
        a = from_json(json.dumps({"q": len(transitions[0]), "initial": 0,
                                  "field": json.loads(field),
                                  "transitions": transitions,
                                  "outputs": outputs}))
        assert a.minimize().n_states == 3 and any(constant_terms(a))
        rel = frobenius_relation(a)
        assert rel.to_text().endswith(" = 0")
        series = a.generate(1024 + rel.max_coeff_degree())
        assert verify_relation(rel, series, check_order=1024)

    def test_five_state_automaton_relation(self):
        rel = frobenius_relation(FIVE_STATE)
        assert verify_relation(rel, FIVE_STATE.generate(256))

    def test_canonicalization_invariance(self):
        # scaling the coefficients by a polynomial, or over F_3 by a
        # constant, does not change the canonical relation
        rel = frobenius_relation(tm_automaton())
        scale = uni(F2, "(1+X)*X^3")
        assert canonical_relation([c * scale for c in rel.coeffs], 2) == rel
        f3 = canonical_relation([uni(F3, "2*X"), uni(F3, "2+2*X")], 3)
        assert f3.coeffs == (uni(F3, "X"), uni(F3, "1+X"))
        assert canonical_relation([c.scale(2) for c in f3.coeffs], 3) == f3


def test_relation_from_kernel_pipeline():
    # diagonal automaton of the Example-1 kernel closure minimizes to the
    # 2-state machine and yields the same canonical relation
    from algseries import furstenberg_rep, parse_poly, rational_kernel
    rep = furstenberg_rep(parse_poly("(1+X)^3*Y^2+(1+X)^2*Y+X", F2))
    minimized = rational_kernel(rep.num, rep.den, diagonal=True).minimize()
    assert minimized == tm_automaton()
    rel = frobenius_relation(minimized)
    assert rel.coeffs == frobenius_relation(tm_automaton()).coeffs


class TestVerifyRelation:
    def test_thue_morse_true(self):
        rel = frobenius_relation(tm_automaton())
        assert verify_relation(rel, tm_series())

    def test_perturbed_series_false(self):
        rel = frobenius_relation(tm_automaton())
        bumped = list(tm_series().coeffs)
        bumped[1] ^= 1  # f + X
        assert not verify_relation(rel, TruncSeries1(F2, bumped, 256))

    def test_zero_series_true(self):
        rel = frobenius_relation(tm_automaton())
        assert verify_relation(rel, TruncSeries1.zeros(F2, 64))

    def test_insufficient_precision(self):
        rel = FrobeniusRelation((uni(F2, "X^9"), UniPoly.one(F2)), 2)
        with pytest.raises(InsufficientPrecision):
            verify_relation(rel, TruncSeries1.zeros(F2, 4))
