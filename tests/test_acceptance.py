"""Acceptance suite: ten criteria, each timed against its budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Every expected value is either reproduced from an independent
oracle (recurrences, digit counting, direct convolution) or is a worked
example checked exactly.
"""

import json
import random
import time

from algseries import (BiPoly, FixedPointProblem, GF, QQ, degree_bound,
                       diagonal_coeffs, export_dot, eval_bipoly_at_series,
                       fixed_point_coefficients, frobenius_relation,
                       from_json, fs_coefficients, furstenberg_rep,
                       parse_poly, rational_kernel, roots_automata,
                       series_expand_ratio, to_json, verify_relation)
from algseries.automaton import DFAO

from conftest import (catalan_numbers, random_bipoly, random_problem,
                      reference_sections, shift_y, thue_morse)

F2, F3, F5 = GF(2), GF(3), GF(5)
TM_POLY = "(1+X)^3*Y^2+(1+X)^2*Y+X"      # roots: Thue-Morse and complement
FIVE_STATE_POLY = "Y^2+(1+X)*Y+X^2"     # roots need a five-state automaton

_cache = {}


def _timed(name, budget, body):
    start = time.time()
    result = body()
    elapsed = time.time() - start
    print(f"criterion {name}: PASS ({elapsed:.2f}s < {budget}s)")
    assert elapsed < budget, f"criterion {name} exceeded {budget}s ({elapsed:.2f}s)"
    return result


def fs_corpus():
    """50 random fixed-point problems per field (deg <= 4), seeded."""
    if "corpus" not in _cache:
        problems = []
        for tag, field in (("F2", F2), ("F3", F3), ("F5", F5), ("Q", QQ)):
            rng = random.Random(f"fs-{tag}")
            problems.extend(random_problem(field, rng, max_deg=4)
                            for _ in range(50))
        _cache["corpus"] = problems
    return _cache["corpus"]


def tm_roots():
    if "tm" not in _cache:
        _cache["tm"] = roots_automata(parse_poly(TM_POLY, F2), 256)
    return _cache["tm"]


def five_state_roots():
    if "fs" not in _cache:
        _cache["fs"] = roots_automata(parse_poly(FIVE_STATE_POLY, F2), 256)
    return _cache["fs"]


def produced_automata():
    """Automata produced by the pipelines above, for criterion 10."""
    if "automata" not in _cache:
        tm = DFAO(2, F2, 0, [(0, 1), (1, 0)], [0, 1])
        rep = furstenberg_rep(parse_poly(TM_POLY, F2))
        automata = [tm]
        for num, den in ((BiPoly.one(F2), parse_poly("1+X+Y", F2)),
                         (rep.num, rep.den)):
            automata += [rational_kernel(num, den),
                         rational_kernel(num, den, diagonal=True)]
        for outcome in (tm_roots(), five_state_roots()):
            automata.extend(aut for _, aut in outcome.branches)
        rng = random.Random("extra-kernels")
        for _ in range(5):
            den = BiPoly(F2, {**random_bipoly(F2, rng, max_deg=2).terms,
                              (0, 0): F2.one})
            num = random_bipoly(F2, rng, max_deg=2)
            automata += [rational_kernel(num, den),
                         rational_kernel(num, den, diagonal=True)]
        _cache["automata"] = automata
    return _cache["automata"]


def test_c01_flajolet_soria_vs_oracle():
    def body():
        for problem in fs_corpus():
            assert fs_coefficients(problem, 64) == \
                fixed_point_coefficients(problem, 64)
    _timed("1 (Flajolet-Soria vs fixed-point oracle, 200 problems, N=64)",
           30, body)


def test_c02_catalan_reproduction():
    def body():
        series = fs_coefficients(
            FixedPointProblem(parse_poly("X+Y^2", QQ)), 10)
        assert list(series.coeffs[1:]) == catalan_numbers(10)
        assert series.coeffs[1:] == (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862)
    _timed("2 (Catalan coefficients f_1..f_10)", 1, body)


def test_c03_furstenberg_round_trip():
    def body():
        for problem in fs_corpus():
            Q = problem.poly - BiPoly.y(problem.field)
            got = diagonal_coeffs(furstenberg_rep(Q), 64)
            assert got == fixed_point_coefficients(problem, 64)
    _timed("3 (diagonal-representation round trip on the same corpus)", 60, body)


def test_c04_cartier_twist_identity():
    def body():
        for tag, field in (("F2", F2), ("F4", GF(4))):
            rng = random.Random(f"lemma1-{tag}")
            q = field.order
            for _ in range(200):
                A = random_bipoly(field, rng, max_deg=2)
                B = random_bipoly(field, rng, max_deg=3)
                r, s = rng.randrange(q), rng.randrange(q)
                lhs, = reference_sections((A ** q) * B, [r + q * s])
                rhs, = reference_sections(B, [r + q * s])
                assert lhs == A * rhs
    _timed("4 (digit-section twist identity, 200 samples over F2 and F4)",
           5, body)


def test_c05_kernel_closure_and_coefficients():
    def body():
        rng = random.Random("prop2")
        for _ in range(25):
            P = random_bipoly(F2, rng, max_deg=3)
            den_terms = dict(random_bipoly(F2, rng, max_deg=3).terms)
            den_terms[(0, 0)] = F2.one
            if all(k == (0, 0) for k in den_terms):
                den_terms[(1, 0)] = F2.one
            Q = BiPoly(F2, den_terms)
            kernel = rational_kernel(P, Q)
            bound = degree_bound(P, Q)
            for label in kernel.labels[1:]:
                assert parse_poly(label, F2).total_degree < max(bound, 1)
            S = series_expand_ratio(P, Q, 31)
            for m in range(32):
                for n in range(32):
                    assert kernel.run_raw((m, n)) == S.get(m, n)
    _timed("5 (kernel closure degree bound + coefficients m,n <= 31, "
           "25 random P/Q)", 60, body)


def test_c06_thue_morse_relation_golden():
    def body():
        tm = DFAO(2, F2, 0, [(0, 1), (1, 0)], [0, 1])
        relation = frobenius_relation(tm)
        expected = (parse_poly("X", F2).as_unipoly_x(),
                    parse_poly("1+X", F2).as_unipoly_x(),
                    parse_poly("(1+X)^4", F2).as_unipoly_x())
        assert relation.coeffs == expected
        assert verify_relation(relation, tm.generate(256))
    _timed("6 (Thue-Morse annihilating relation golden)", 5, body)


def test_c07_thue_morse_roots():
    def body():
        outcome = tm_roots()
        assert len(outcome.branches) == 2
        assert not outcome.failures and not outcome.skipped
        P = parse_poly(TM_POLY, F2)
        for branch, automaton in outcome.branches:
            assert automaton.n_states == 2
            seq = [automaton.run_raw(n) for n in range(1001)]
            want = [thue_morse(n) for n in range(1001)]
            if branch.a0 == 1:
                want = [1 - v for v in want]
            assert seq == want
            generated = automaton.generate(256)
            assert eval_bipoly_at_series(P, generated).is_zero()
    _timed("7 (Thue-Morse quadratic: two 2-state branches, sequence and "
           "complement, root mod X^257)", 10, body)


def test_c08_five_state_roots():
    def body():
        outcome = five_state_roots()
        assert len(outcome.branches) == 2
        expected_rel = (parse_poly("X^2+X^3", F2).as_unipoly_x(),
                        parse_poly("1", F2).as_unipoly_x(),
                        parse_poly("1", F2).as_unipoly_x())
        assert outcome.relation.coeffs == expected_rel
        Q = parse_poly(FIVE_STATE_POLY, F2)
        branch0 = next(b for b, _ in outcome.branches if b.a0 == 0)
        assert branch0.series.coeffs[:8] == (0, 0, 1, 1, 0, 0, 1, 1)
        for branch, automaton in outcome.branches:
            assert automaton.n_states <= 5
            generated = automaton.generate(256)
            assert generated.coeffs == branch.series.coeffs[:257]
            assert eval_bipoly_at_series(Q, generated).is_zero()
    _timed("8 (five-state quadratic: relation f^4+f^2+(X^2+X^3)f=0, "
           "branches verified mod X^257)", 10, body)


def test_c09_christol_pipeline_coherence():
    def body():
        # the branch f = a0 + phi, phi the root of P(X, a0 + Y) with
        # phi(0) = 0, is the diagonal of (rep.num + a0*rep.den)/rep.den;
        # minimize numbers its blocks canonically, so equal sequences
        # give equal automata, and the equality holds at every index
        P = parse_poly(TM_POLY, F2)
        for branch, automaton in tm_roots().branches:
            rep = furstenberg_rep(shift_y(P, branch.a0))
            diag = rational_kernel(rep.num + rep.den.scale(branch.a0),
                                   rep.den, diagonal=True)
            assert diag.minimize() == automaton
    _timed("9 (diagonal automaton == roots automaton, Thue-Morse "
           "quadratic, both branches, exact)", 10, body)


def test_c10_automaton_infrastructure():
    def body():
        for automaton in produced_automata():
            minimized = automaton.minimize()
            assert minimized.minimize() == minimized
            if automaton.arity == 1:
                assert minimized.generate(512) == automaton.generate(512)
            else:
                for m in range(0, 41, 5):
                    for n in range(0, 41, 5):
                        assert minimized.run_raw((m, n)) == \
                            automaton.run_raw((m, n))
            text = to_json(automaton)
            assert from_json(text) == automaton
            assert to_json(from_json(text)) == text
            assert export_dot(automaton) == export_dot(automaton)
            doc = json.loads(text)
            assert doc["digit_order"] == "lsd"
    _timed("10 (minimize idempotent/sequence-preserving at N=512, JSON "
           "lossless, DOT stable)", 60, body)
