import json
import os
from dataclasses import dataclass
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import algseries.roots
from algseries import (DFAO, GF, QQ, BiPoly, TruncSeries1, UniPoly,
                       attach_outputs, cartier_closure, derivative_y,
                       eval_bipoly_at_series, frobenius_from_poly,
                       furstenberg_rep, hensel_root, parse_poly,
                       rational_kernel, residue_roots, roots_automata,
                       verify_relation)
from algseries.algebra.conv import conv
from algseries.algebra.series import poly_to_series
from algseries.annihilator import canonical_relation, null_left_vector
from algseries.cartier import close, numerator_images
from algseries.cli import parse_field_spec
from algseries.roots import BranchRoot, residue_outputs, spot_check_closure
from algseries.errors import (AlgSeriesError, DegenerateReduction,
                              HypothesisViolated, InfiniteField,
                              InsufficientPrecision, NonSimpleRoot,
                              NotSquarefree, StateBudgetExceeded)

from conftest import F2, F3, F4, F5, F8, F9, shift_y, thue_morse
from ratfn import RationalFn

F7 = GF(7)


def uni(field, text):
    return parse_poly(text, field).as_unipoly_x()


TM_POLY = "(1+X)^3*Y^2+(1+X)^2*Y+X"      # roots: Thue-Morse and complement
FIVE_STATE_POLY = "Y^2+(1+X)*Y+X^2"     # roots need a five-state automaton
# 262-state closure of BFS depth 19: no number below 3^18 has the 19 digits
# that reach its deepest states, far beyond the order states are evaluated to
DEEP_F3_POLY = "2*X^3+2*X^3*Y^3+Y+X^3*Y+2*X*Y+Y^3+X"

# relations of length 3 with coefficient degrees up to 220 (the F5 cubic),
# 896 (F8) and 1332 (F9), each as FrobeniusRelation.to_text prints it
with open(os.path.join(os.path.dirname(__file__), "data",
                       "relations_golden.json")) as _handle:
    RELATIONS_GOLDEN = json.load(_handle)


class TestResidueRoots:
    def test_thue_morse_poly(self):
        roots = residue_roots(parse_poly(TM_POLY, F2))
        assert roots == [(0, True), (1, True)]

    def test_five_state_poly(self):
        roots = residue_roots(parse_poly(FIVE_STATE_POLY, F2))
        assert roots == [(0, True), (1, True)]

    def test_linear(self):
        roots = residue_roots(parse_poly("Y-X", F2))
        assert roots == [(0, True)]

    def test_degenerate(self):
        with pytest.raises(DegenerateReduction):
            residue_roots(parse_poly("X*Y+X", F2))

    def test_non_simple_flag(self):
        # Y^2 + X: residue root 0 with P_Y(0,0) = 0
        roots = residue_roots(parse_poly("Y^2+X", F2))
        assert roots == [(0, False)]

    def test_requires_finite_field(self):
        with pytest.raises(InfiniteField):
            residue_roots(parse_poly("Y-X", QQ))


class TestHensel:
    def test_linear(self):
        f = hensel_root(parse_poly("Y-X", F2), 0, 6)
        assert f.coeffs == (0, 1, 0, 0, 0, 0, 0)

    def test_five_state_branch0(self):
        f = hensel_root(parse_poly(FIVE_STATE_POLY, F2), 0, 7)
        assert f.coeffs == (0, 0, 1, 1, 0, 0, 1, 1)

    def test_thue_morse_branch0(self):
        f = hensel_root(parse_poly(TM_POLY, F2), 0, 7)
        assert list(f.coeffs) == [thue_morse(n) for n in range(8)]

    def test_annihilates(self):
        P = parse_poly(FIVE_STATE_POLY, F2)
        f = hensel_root(P, 1, 40)
        assert eval_bipoly_at_series(P, f).is_zero()

    def test_non_simple_rejected(self):
        with pytest.raises(NonSimpleRoot):
            hensel_root(parse_poly("Y^2+X", F2), 0, 5)
        with pytest.raises(HypothesisViolated):
            hensel_root(parse_poly("Y-X", F2), 1, 5)

    def test_extension_field(self):
        # root with a0 = t in F_4: (Y - t) * (Y - (t+1)) = Y^2 + Y + t(t+1)
        t = 2
        t1 = F4.add(t, F4.one)
        c = F4.mul(t, t1)  # t^2 + t = 1
        P = BiPoly(F4, {(0, 2): F4.one, (0, 1): F4.one, (0, 0): c})
        roots = residue_roots(P)
        assert {a for a, simple in roots} == {t, t1}
        f = hensel_root(P, t, 5)
        assert f.coeffs == (t, 0, 0, 0, 0, 0)


class TestFrobeniusFromPoly:
    def test_thue_morse_relation(self):
        rel = frobenius_from_poly(parse_poly(TM_POLY, F2))
        assert rel.coeffs == (uni(F2, "X"), uni(F2, "1+X"), uni(F2, "(1+X)^4"))

    def test_five_state_relation(self):
        rel = frobenius_from_poly(parse_poly(FIVE_STATE_POLY, F2))
        assert rel.coeffs == (uni(F2, "X^2+X^3"), UniPoly.one(F2),
                              UniPoly.one(F2))
        assert rel.to_text() == "(X^2 + X^3)*f + f^2 + f^4 = 0"

    def test_linear_poly(self):
        # Y - X: X f + f^2 = 0 for f = X over F_2
        rel = frobenius_from_poly(parse_poly("Y-X", F2))
        assert rel.coeffs == (uni(F2, "X"), UniPoly.one(F2))

    def test_relation_verifies_against_hensel(self):
        for text in (TM_POLY, FIVE_STATE_POLY):
            P = parse_poly(text, F2)
            rel = frobenius_from_poly(P)
            for a0, simple in residue_roots(P):
                if simple:
                    f = hensel_root(P, a0, 256)
                    assert verify_relation(rel, f)

    def test_not_squarefree(self):
        with pytest.raises(NotSquarefree):
            frobenius_from_poly(parse_poly("Y^2+X^2", F2))  # (Y+X)^2
        with pytest.raises(NotSquarefree):
            frobenius_from_poly(parse_poly("Y^2", F2))
        # the pseudo-remainder gcd runs two steps and ends at X*Y + 1
        with pytest.raises(NotSquarefree):
            frobenius_from_poly(parse_poly("(X*Y+1)^2*(Y+X)", F3))

    def test_needs_y(self):
        with pytest.raises(HypothesisViolated):
            frobenius_from_poly(parse_poly("X^2+1", F2))

    @pytest.mark.parametrize("name", sorted(RELATIONS_GOLDEN))
    def test_golden_relations(self, name):
        want = RELATIONS_GOLDEN[name]
        P = parse_poly(want["poly"], parse_field_spec(want["field"]))
        assert frobenius_from_poly(P).to_text() == want["relation"]


class TestCartierClosure:
    def test_thue_morse_two_states(self):
        skel = cartier_closure(parse_poly(TM_POLY, F2))
        assert skel.n_states == 2
        # Lambda_0(f) = f, Lambda_1(f) = f1, Lambda_0(f1) = f1, Lambda_1(f1) = f
        assert skel.transitions == [[0, 1], [1, 0]]
        # P_Y = 1 + X^2: f = Y*P_Y/P_Y and f1 = f + 1/(1 + X)
        assert [A.to_text() for A in skel.states] == ["Y + X^2*Y",
                                                     "1 + X + Y + X^2*Y"]
        assert skel.labels == ["Y + X^2*Y", "1 + X + Y + X^2*Y"]

    def test_five_state_closure(self):
        skel = cartier_closure(parse_poly(FIVE_STATE_POLY, F2))
        assert skel.n_states == 5
        assert skel.transitions == [[1, 1], [2, 3], [1, 4], [3, 3], [4, 4]]
        # P_Y = 1 + X: state 2 is f/(1+X), state 3 the constant 1/(1+X)
        # and state 4 the zero element
        assert skel.labels == ["Y + X*Y", "X + Y", "Y", "1", "0"]
        assert skel.states[4].is_zero()

    def test_zero_relation_single_state(self):
        # P = Y pins f = 0: its start numerator Y*P_Y - P is zero
        skel = cartier_closure(parse_poly("Y", F2))
        assert skel.n_states == 1
        assert skel.transitions == [[0, 0]]
        assert skel.states[0].is_zero()

    def test_requires_finite_field(self):
        with pytest.raises(InfiniteField):
            cartier_closure(parse_poly("Y^2+Y+X", QQ))


def branch_automaton(skel, a0):
    """The closure with the residue outputs of a0, as roots_automata builds
    it."""
    return DFAO(skel.q, skel.field, 0, skel.transitions,
                residue_outputs(skel, a0), skel.labels)


class TestAttachOutputs:
    def _branch(self, text, a0, skel):
        P = parse_poly(text, F2)
        return BranchRoot(a0=a0,
                          series=hensel_root(P, a0, skel.certificate_order))

    def _attach(self, text, a0, skel):
        return attach_outputs(skel, self._branch(text, a0, skel),
                              branch_automaton(skel, a0))

    def test_thue_morse_outputs(self):
        skel = cartier_closure(parse_poly(TM_POLY, F2))
        aut0 = self._attach(TM_POLY, 0, skel)
        assert [aut0.outputs[i] for i in range(2)] == [0, 1]
        aut1 = self._attach(TM_POLY, 1, skel)
        assert [aut1.outputs[i] for i in range(2)] == [1, 0]

    def test_five_state_outputs_including_state_b(self):
        skel = cartier_closure(parse_poly(FIVE_STATE_POLY, F2))
        aut0 = self._attach(FIVE_STATE_POLY, 0, skel)
        # branch outputs: i, a -> 0, c -> 1, sink -> 0; the value at
        # state b (index 2) is pinned here by the series evaluation
        assert [aut0.outputs[i] for i in range(5)] == [0, 0, 0, 1, 0]
        aut1 = self._attach(FIVE_STATE_POLY, 1, skel)
        assert [aut1.outputs[i] for i in range(5)] == [1, 1, 1, 1, 0]

    def test_returns_automaton_and_keeps_labels(self):
        skel = cartier_closure(parse_poly(FIVE_STATE_POLY, F2))
        branch = self._branch(FIVE_STATE_POLY, 1, skel)
        automaton = branch_automaton(skel, 1)
        assert attach_outputs(skel, branch, automaton) is automaton
        assert list(automaton.labels) == skel.labels

    def test_output_mismatch_rejected(self):
        # the outputs of branch 1 on the series of branch 0
        skel = cartier_closure(parse_poly(TM_POLY, F2))
        with pytest.raises(AlgSeriesError, match="constant terms"):
            attach_outputs(skel, self._branch(TM_POLY, 0, skel),
                           branch_automaton(skel, 1))

    def test_insufficient_precision(self):
        skel = cartier_closure(parse_poly(TM_POLY, F2))
        short = BranchRoot(a0=0,
                           series=TruncSeries1.zeros(F2, 3))
        with pytest.raises(InsufficientPrecision):
            attach_outputs(skel, short, branch_automaton(skel, 0))

    def test_spot_check_passes(self):
        # Thue-Morse branch 0: state 0 is t(n), state 1 = Lambda_1 f is 1 - t(n)
        skel = cartier_closure(parse_poly(TM_POLY, F2))
        values = [TruncSeries1(F2, [thue_morse(n) for n in range(64)]),
                  TruncSeries1(F2, [1 - thue_morse(n) for n in range(64)])]
        spot_check_closure(skel, values)
        skel.transitions[1][1] = 1
        with pytest.raises(AlgSeriesError, match="state 1, digit 1"):
            spot_check_closure(skel, values)

    def test_corrupted_transition_rejected(self):
        skel = cartier_closure(parse_poly(FIVE_STATE_POLY, F2))
        assert skel.transitions[1][0] == 2
        skel.transitions[1][0] = 3
        branch = self._branch(FIVE_STATE_POLY, 0, skel)
        with pytest.raises(AlgSeriesError, match="state 1, digit 0"):
            attach_outputs(skel, branch, branch_automaton(skel, 0))


class TestRootsAutomata:
    def test_thue_morse_end_to_end(self):
        out = roots_automata(parse_poly(TM_POLY, F2), 200)
        assert len(out.branches) == 2 and not out.failures and not out.skipped
        for branch, aut in out.branches:
            assert aut.n_states == 2
            seq = [aut.run_raw(n) for n in range(201)]
            if branch.a0 == 0:
                assert seq == [thue_morse(n) for n in range(201)]
            else:
                assert seq == [1 - thue_morse(n) for n in range(201)]

    def test_five_state_end_to_end(self):
        out = roots_automata(parse_poly(FIVE_STATE_POLY, F2), 128)
        assert len(out.branches) == 2 and not out.failures
        for branch, aut in out.branches:
            assert aut.n_states <= 5
            assert aut.generate(128).coeffs == branch.series.coeffs[:129]

    def test_linear_end_to_end(self):
        out = roots_automata(parse_poly("Y-X", F2), 64)
        assert len(out.branches) == 1
        branch, aut = out.branches[0]
        assert branch.series.coeffs[:5] == (0, 1, 0, 0, 0)
        assert aut.generate(64).coeffs == branch.series.coeffs[:65]

    def test_skeleton_branch_independent(self):
        out = roots_automata(parse_poly(TM_POLY, F2), 32)
        (b0, a0), (b1, a1) = out.branches
        assert a0.transitions == a1.transitions
        assert a0.outputs != a1.outputs

    def test_soundness_property(self):
        for text in (TM_POLY, FIVE_STATE_POLY, "Y-X", "Y^2+Y+X^3"):
            P = parse_poly(text, F2)
            out = roots_automata(P, 96)
            for branch, aut in out.branches:
                assert eval_bipoly_at_series(P, aut.generate(96)).is_zero()

    def test_skips_non_simple(self):
        # Y^3 + Y + X over F_2: P(0,Y) = Y(Y+1)^2, so the residue root 1 is
        # not simple while 0 is; the polynomial is still squarefree in Y
        P = parse_poly("Y^3+Y+X", F2)
        out = roots_automata(P, 32)
        assert out.skipped == [1]
        assert len(out.branches) == 1
        assert out.branches[0][0].a0 == 0

    def test_inseparable_rejected(self):
        # (Y^2+X)(Y+1) has gcd(P, P_Y) = Y^2 + X: caught by the
        # squarefreeness check even though Y^2+X has no repeated factor
        with pytest.raises(NotSquarefree):
            roots_automata(parse_poly("(Y^2+X)*(Y+1)", F2), 16)

    def test_no_simple_roots(self):
        with pytest.raises(HypothesisViolated):
            roots_automata(parse_poly("Y^2+X", F2), 16)

    def test_quartic_over_f4(self):
        # a squarefree quartic over F_4 exercises q = 4 digit closure
        P = parse_poly("Y^2+Y+X", F4)
        out = roots_automata(P, 64)
        assert len(out.branches) == 2 and not out.failures
        for branch, aut in out.branches:
            assert eval_bipoly_at_series(P, aut.generate(64)).is_zero()

    def test_relation_degree_above_check_order(self):
        # relation coefficients of degree 1944 over F9, above the
        # certificate order q*K + q - 1 = 143 (K = 3*5) of the 21-state
        # closure, so the branch series is generated to 64 + 1944
        P = parse_poly("Y + (1+t)*Y^2 + (1+2*t)*X^3 + (1+t)*X^3*Y + 2*X^3*Y^3",
                       F9)
        out = roots_automata(P, 64)
        assert out.relation.max_coeff_degree() == 1944
        assert len(out.branches) == 2 and not out.failures
        for branch, aut in out.branches:
            assert aut.generate(64).coeffs == branch.series.coeffs[:65]

    def test_deep_f3_closure(self):
        P = parse_poly(DEEP_F3_POLY, F3)
        skel = cartier_closure(P)
        depth = [0] + [None] * (skel.n_states - 1)
        for s, row in enumerate(skel.transitions):
            for t in row:
                if depth[t] is None:
                    depth[t] = depth[s] + 1
        assert skel.n_states == 262 and max(depth) == 19
        # attach_outputs checks every one of the 262 states on the branch
        with mock.patch.object(algseries.roots, "attach_outputs",
                               wraps=attach_outputs) as spy:
            out = roots_automata(P, 64)
        assert len(out.branches) == 1 and not out.failures
        skeleton, _, automaton = spy.call_args.args
        assert skeleton.n_states == automaton.n_states == 262


@st.composite
def small_polys(draw):
    field = draw(st.sampled_from([F2, F3, F4]))
    terms = draw(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 2)),
                                 st.integers(1, field.order - 1),
                                 min_size=1, max_size=5))
    return BiPoly(field, terms)


@settings(max_examples=30)
@given(small_polys())
def test_roots_property(P):
    try:
        with mock.patch.object(algseries.roots, "CLOSURE_BUDGET", 64):
            out = roots_automata(P, 32)
    except (DegenerateReduction, HypothesisViolated, NotSquarefree,
            StateBudgetExceeded):
        assume(False)
    assert not out.failures


@st.composite
def simple_root_polys(draw):
    """P over F2..F9 with a simple residue root a0: P(0, Y) is
    (Y - a0)*(c + (Y - a0)*v(Y)) with c != 0, plus terms X^i Y^j with
    i >= 1; Y-degree up to 3 (up to 2 over F5 and F9, whose cubics mostly
    have relations of degree in the thousands)."""
    field = draw(st.sampled_from([F2, F3, F4, F5, F9]))
    coeff = st.integers(1, field.order - 1)
    deg_y = 3 if field.order <= 4 else 2
    a0 = draw(st.integers(0, field.order - 1))
    shifted = BiPoly.y(field) - BiPoly.constant(field, a0)
    v = BiPoly(field, draw(st.dictionaries(
        st.tuples(st.just(0), st.integers(0, deg_y - 2)), coeff, max_size=2)))
    tail = BiPoly(field, draw(st.dictionaries(
        st.tuples(st.integers(1, 3), st.integers(0, deg_y)), coeff,
        min_size=1, max_size=5)))
    return shifted * (BiPoly.constant(field, draw(coeff)) + shifted * v) + tail


@settings(max_examples=80)  # 40 examples drew no F5 input
@given(simple_root_polys(), st.sampled_from([16, 64]))
def test_branches_match_hensel_lift(P, n):
    # hensel_root is the independent oracle: every branch series read off
    # the closure automaton equals the Newton lift to the certified order
    try:
        with mock.patch.object(algseries.roots, "CLOSURE_BUDGET", 64):
            out = roots_automata(P, n)
    except (NotSquarefree, StateBudgetExceeded):
        assume(False)
    need = max(n + out.relation.max_coeff_degree(),
               cartier_closure(P).certificate_order)
    assert out.branches and not out.failures
    for branch, aut in out.branches:
        assert branch.series == hensel_root(P, branch.a0, need)
        assert aut.generate(n).coeffs == branch.series.coeffs[:n + 1]


@settings(max_examples=60)
@given(simple_root_polys())
def test_branches_are_diagonals_of_their_furstenberg_rep(P):
    # the paper's route: the branch f = a0 + phi, phi the root of
    # P(X, a0 + Y) with phi(0) = 0, is the diagonal of
    # (rep.num + a0*rep.den)/rep.den, so the minimized diagonal kernel
    # automaton equals the minimized branch automaton, at every index
    try:
        with mock.patch.object(algseries.roots, "CLOSURE_BUDGET", 256):
            out = roots_automata(P, 16)
    except (NotSquarefree, StateBudgetExceeded):
        assume(False)
    q = P.field.order
    for branch, automaton in out.branches:
        rep = furstenberg_rep(shift_y(P, branch.a0))
        num = rep.num + rep.den.scale(branch.a0)
        try:
            close(num, numerator_images(rep.den, range(0, q * q, q + 1)),
                  2000, "diagonal closure")
        except StateBudgetExceeded:
            continue
        diagonal = rational_kernel(num, rep.den, diagonal=True)
        assert diagonal.minimize() == automaton


def test_wrong_minimization_is_a_failure():
    # the minimized automaton must generate the certified series: one that
    # outputs 0 everywhere does not, and its branch is reported as failed
    zero = lambda self: DFAO(self.q, self.field, 0, [[0] * self.q],
                             [self.field.zero])
    with mock.patch.object(DFAO, "minimize", zero):
        out = roots_automata(parse_poly(TM_POLY, F2), 32)
    assert out.failures == [0, 1]


def redirect_transition(skeleton):
    # Thue-Morse closure: state 1 reads digit 0 to state 0, not to itself
    skeleton.transitions[1][0] = 0
    return skeleton


def perturb_numerator(skeleton):
    # A + P_Y stands for A/P_Y + 1: every output of state 1 moves by one
    skeleton.states[1] = skeleton.states[1] + derivative_y(skeleton.poly)
    return skeleton


@pytest.mark.parametrize("corrupt", [redirect_transition, perturb_numerator])
def test_wrong_closure_fails_substitution_check(corrupt):
    # the series generated by a wrong closure does not annihilate P; the
    # substitution check rejects it before the closure is spot-checked
    closure = algseries.roots.cartier_closure
    with mock.patch.object(algseries.roots, "cartier_closure",
                           lambda P: corrupt(closure(P))):
        with pytest.raises(AlgSeriesError,
                           match=r"does not annihilate P mod X\^"):
            roots_automata(parse_poly(TM_POLY, F2), 32)


def reference_frobenius_from_poly(P):
    """The relation as roots built it before its rows came from pseudo-
    remainders: Y^(q^k) mod P by products in F_q(X)[Y]/(P), each
    power cleared by the lcm of its denominators."""
    field, q, D = P.field, P.field.order, P.deg_y
    zero = RationalFn.zero(field)

    def trim(a):
        while a and a[-1].is_zero():
            a.pop()
        return a

    def mul(a, b):
        out = [zero] * max(len(a) + len(b) - 1, 0)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
        return trim(out)

    def mod(a, m):
        a, inv = list(a), m[-1].inverse()
        while len(a) >= len(m):
            f = a[-1] * inv
            for i in range(len(m) - 1):
                a[len(a) - len(m) + i] = a[len(a) - len(m) + i] - f * m[i]
            a.pop()
        return trim(a)

    slices = P.y_slices()
    pcoeffs = [RationalFn.from_poly(slices.get(j, UniPoly.zero(field)))
               for j in range(D + 1)]
    a = pcoeffs
    b = trim([c * RationalFn.from_poly(UniPoly(field, (field.from_int(j),)))
              for j, c in enumerate(pcoeffs)][1:])
    while b:
        a, b = b, mod(a, b)
    if len(a) > 1:
        raise NotSquarefree("gcd(P, P_Y) has positive degree in Y")
    monic = [c * pcoeffs[D].inverse() for c in pcoeffs]
    vector, rows, scales = mod([zero, RationalFn.one(field)], monic), [], []
    for _ in range(D + 1):
        coords = vector + [zero] * (D - len(vector))
        lcm = UniPoly.one(field)
        for c in coords:
            lcm = lcm * (c.den // lcm.gcd(c.den))
        scales.append(lcm)
        rows.append([c.num * (lcm // c.den) for c in coords])
        power = [RationalFn.one(field)]
        for _ in range(q):
            power = mod(mul(power, vector), monic)
        vector = power
    combo = null_left_vector(rows)
    return canonical_relation([c * s for c, s in zip(combo, scales)], q)


@st.composite
def relation_polys(draw):
    """P over F2..F5 with deg_Y 1..3 and X-degrees up to 2, or such a P
    times the square of a factor of degree 1 in X and Y."""
    field = draw(st.sampled_from([F2, F3, F4, F5]))
    coeff = st.integers(1, field.order - 1)
    terms = draw(st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 3)),
                                 coeff, min_size=1, max_size=5))
    P = BiPoly(field, terms)
    if draw(st.booleans()):
        factor = BiPoly(field, draw(st.dictionaries(
            st.tuples(st.integers(0, 1), st.integers(0, 1)), coeff,
            min_size=1, max_size=4)))
        P = P * factor * factor
    assume(P.deg_y >= 1)
    return P


@given(relation_polys())
def test_relation_matches_rational_function_ring(P):
    try:
        want = reference_frobenius_from_poly(P)
    except NotSquarefree:
        with pytest.raises(NotSquarefree):
            frobenius_from_poly(P)
        return
    assert frobenius_from_poly(P) == want


# -- the closure in Ore's polynomial coordinates that roots ran before its
# states became numerators over P_Y, kept as a reference --

def reference_cartier_uni(A, r):
    """Univariate digit section of a UniPoly: [X^n]result = [X^(qn+r)]A."""
    return UniPoly(A.field, A.coeffs[r::A.field.order])


@dataclass(frozen=True)
class ModuleElement:
    """sum_i coords[i](X) * g^(q^i) for g = f/A_0: Ore coordinates in F_q[X]."""

    coords: tuple


def reference_cartier_closure(relation, state_budget):
    """(states, transitions) of {f} under Lambda_0..Lambda_{q-1}.

    Digit r sends (E_0, ..., E_{d-1}) to (Lambda_r(E_{i+1} + E_0*C_{i+1}))_i
    with E_d = 0 and C_i = -A_i*A_0^(q^i-2): g = f/A_0 solved from the
    relation.
    """
    field, q = relation.field, relation.q
    A0 = relation.coeffs[0]
    n = len(relation.coeffs) - 1
    C = [-(A * A0 ** (q ** i - 2)) for i, A in enumerate(relation.coeffs[1:], 1)]
    zero = UniPoly.zero(field)

    def images(elem):
        terms = list(elem.coords[1:]) + [zero]
        E0 = elem.coords[0]
        if not E0.is_zero():
            terms = [t + E0 * c for t, c in zip(terms, C)]
        return [ModuleElement(tuple(reference_cartier_uni(t, r) for t in terms))
                for r in range(q)]

    start = ModuleElement((A0 if n else zero,) + (zero,) * (n - 1))
    return close(start, images, state_budget, "Cartier closure")


def valuation(poly):
    """Index of the lowest nonzero coefficient of a nonzero UniPoly."""
    return next(n for n, c in enumerate(poly.coeffs) if c)


def reference_state_values(relation, states, series):
    """Every Ore state evaluated on one branch, to order series.order - v.

    With A_0 = X^v*U and U(0) != 0, g^(q^i) = X^(-v*q^i) * w(X^(q^i)) for
    w = f/U, so coefficients v*q^i .. v*q^i + order of E_i * w(X^(q^i)) are
    state coefficients 0 .. order.
    """
    field, q = series.field, relation.q
    A0 = relation.coeffs[0]
    v = valuation(A0)
    order = series.order - v
    unit = poly_to_series(UniPoly(field, A0.coeffs[v:]), field, series.order)
    w = (unit.inverse() * series).coeffs
    values = []
    for state in states:
        total = TruncSeries1.zeros(field, order)
        for i, E in enumerate(state.coords):
            e = q ** i
            spread = [field.zero] * (v * e + order + 1)
            spread[::e] = w[:v + order // e + 1]
            part = conv(field, E.coeffs, spread, v * e + order)[v * e:]
            total = total + TruncSeries1(field, part, order)
        values.append(total)
    return values


@st.composite
def closure_polys(draw):
    """P over F2..F9 with X-degree up to 3 and Y-degree up to 3 (up to 2
    over F7..F9, where cubics mostly have relations of degree far above
    120 that take seconds to find); half of them have the simple residue
    root 0 (no constant term, a term in Y alone)."""
    field = draw(st.sampled_from([F2, F3, F4, F5, F7, F8, F9]))
    coeff = st.integers(1, field.order - 1)
    deg_y = 3 if field.order <= 5 else 2
    terms = draw(st.dictionaries(st.tuples(st.integers(0, 3),
                                           st.integers(0, deg_y)),
                                 coeff, min_size=2, max_size=6))
    if draw(st.booleans()):
        terms.pop((0, 0), None)
        terms[(0, 1)] = draw(coeff)
    P = BiPoly(field, terms)
    assume(P.deg_y >= 1)
    return P


@settings(max_examples=60)
@given(closure_polys())
def test_closure_matches_ore_closure(P):
    # same states in the same order as the Ore closure, numerators inside
    # the box deg_X <= deg_X P, deg_Y < deg_Y P, and each numerator over
    # P_Y equal, on every simple branch, to the Ore state's series
    try:
        relation = frobenius_from_poly(P)
    except NotSquarefree:
        assume(False)
    assume(relation.max_coeff_degree() <= 120)
    try:
        ore_states, ore_transitions = reference_cartier_closure(relation, 64)
    except StateBudgetExceeded:
        assume(False)
    skel = cartier_closure(P)
    assert skel.transitions == ore_transitions
    assert all(A.deg_x <= P.deg_x and A.deg_y < P.deg_y for A in skel.states)
    try:
        roots = residue_roots(P)
    except DegenerateReduction:
        roots = []
    v = valuation(relation.coeffs[0])
    for a0, simple in roots:
        if not simple:
            continue
        f = hensel_root(P, a0, 48 + v)
        inverse = eval_bipoly_at_series(derivative_y(P), f).inverse()
        want = reference_state_values(relation, ore_states, f)
        for A, ore in zip(skel.states, want):
            got = eval_bipoly_at_series(A, f) * inverse
            assert got.coeffs[:ore.order + 1] == ore.coeffs


# -- the certificate order: a box polynomial C with C(X, f) = 0 mod X^(K+1),
# K = deg_X P * (2*deg_Y P - 1), has C(X, f) = 0 --

def box_rows(P, f):
    """X^a f^b to the order of f, for each monomial of the box
    deg_X <= deg_X P, deg_Y < deg_Y P."""
    field = f.field
    powers = [TruncSeries1(field, [field.one], f.order)]
    while len(powers) < P.deg_y:
        powers.append(powers[-1] * f)
    return [[field.zero] * a + list(powers[b].coeffs[:f.order + 1 - a])
            for a in range(P.deg_x + 1) for b in range(P.deg_y)]


def left_kernel(field, rows, width):
    """A basis of {c : sum_i c_i * rows[i][:width] = 0}, by Gauss-Jordan
    elimination on the rows extended by the identity."""
    n = len(rows)
    aug = [list(row[:width]) + [field.one if j == i else field.zero
                                for j in range(n)]
           for i, row in enumerate(rows)]
    rank = 0
    for col in range(width):
        pivot = next((i for i in range(rank, n) if aug[i][col]), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        inv = field.inv(aug[rank][col])
        aug[rank] = [field.mul(inv, x) for x in aug[rank]]
        for i in range(n):
            if i != rank and aug[i][col]:
                c = aug[i][col]
                aug[i] = [field.sub(x, field.mul(c, y))
                          for x, y in zip(aug[i], aug[rank])]
        rank += 1
    return [row[width:] for row in aug[rank:]]


def combine_rows(field, combo, rows):
    out = [field.zero] * len(rows[0])
    for c, row in zip(combo, rows):
        out = [field.add(x, field.mul(c, y)) for x, y in zip(out, row)]
    return out


@settings(max_examples=100)
@given(closure_polys())
def test_box_polynomials_vanishing_to_K_vanish(P):
    # every box C with C(X, f) = 0 mod X^(K+1) vanishes to order 3K + 30,
    # on every simple branch: the linear algebra behind the certificate
    # order that spot_check_closure reads
    try:
        roots = [a0 for a0, simple in residue_roots(P) if simple]
    except DegenerateReduction:
        roots = []
    assume(roots)
    field = P.field
    K = P.deg_x * (2 * P.deg_y - 1)
    for a0 in roots:
        rows = box_rows(P, hensel_root(P, a0, 3 * K + 30))
        for combo in left_kernel(field, rows, K + 1):
            assert not any(combine_rows(field, combo, rows))


def close_perturbed_state(skeleton, t, C):
    """The skeleton with C added to the numerator of state t, whose
    transitions now go to the closure of A_t + C: the transitions into t
    are off by C(X, f)/P_Y(X, f), every other transition is right."""
    q, n = skeleton.q, skeleton.n_states
    images = numerator_images(skeleton.poly, range(q * q - q, q * q))
    states, transitions = close(skeleton.states[t] + C, images, 4096,
                                "perturbed closure")

    def index(u):
        return t if u == 0 else n + u - 1

    skeleton.states[t] = states[0]
    skeleton.states += states[1:]
    skeleton.transitions[t] = [index(u) for u in transitions[0]]
    skeleton.transitions += [[index(u) for u in row] for row in transitions[1:]]
    return skeleton


# (field, P, a0, C) with val C(X, f) = K exactly, f the branch of a0: each C
# is in the left kernel of box_rows cut to coefficients 0..K-1, not in the
# one cut to 0..K
TIGHT_BOX_POLYNOMIALS = [
    (F2, TM_POLY, 0, "X + Y + X*Y + X^3 + X^3*Y"),   # K = 9
    (F3, "Y^3 - Y + X", 0, "X + 2*Y + X*Y^2"),        # K = 5: C(X, f) = -f^5
    (F4, "Y^2 + Y + X", 1, "1 + Y + X*Y"),            # K = 3
]


@pytest.mark.parametrize("field, text, a0, box", TIGHT_BOX_POLYNOMIALS,
                         ids=["thue_morse_f2", "cubic_f3", "artin_schreier_f4"])
def test_check_reads_the_tight_coefficient(field, text, a0, box):
    # adding C to a numerator moves one value by C(X, f)/P_Y(X, f), whose
    # first nonzero coefficient is K: attach_outputs must read coefficient
    # K of each digit section to reject the transition into that state
    P, C = parse_poly(text, field), parse_poly(box, field)
    K = P.deg_x * (2 * P.deg_y - 1)
    assert C.deg_x <= P.deg_x and C.deg_y < P.deg_y
    skel = close_perturbed_state(cartier_closure(P), 1, C)
    assert skel.certificate_order == skel.q * (K + 1) - 1
    f = hensel_root(P, a0, skel.certificate_order)
    shift = eval_bipoly_at_series(C, f).coeffs
    assert not any(shift[:K]) and shift[K]
    with pytest.raises(AlgSeriesError,
                       match="closure check failed at state 0, digit"):
        attach_outputs(skel, BranchRoot(a0=a0, series=f),
                       branch_automaton(skel, a0))
