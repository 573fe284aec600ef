"""Power-series roots of P in F_q[X][Y] as finite automata.

Pipeline: enumerate residue roots a0 of P(0, Y); derive a minimal Frobenius
relation sum A_k(X) f^(q^k) = 0 by finding the first linear dependency
among Y^(q^k) mod P over F_q(X); close the root under the Cartier
operators on numerators over P_Y.  Per simple a0, the closure with the
outputs A(0, a0)/P_Y(0, a0) is an automaton.  Its series g is certified
by P(X, g) = 0 mod X^(M+1), M the certificate order of the skeleton: a0
is simple, so the root f with f(0) = a0 is unique to every order and
g = f mod X^(M+1).  Each closure state is then evaluated once on g to
order M, and every transition and every output is checked against those
values, which proves that the automaton generates f at every index; g,
generated to the order needed, is then f to that order, and the relation
is checked on it.

The closure runs in L = F_q(X)[Y]/(P), where P_Y is a unit as P is
squarefree.  For every A in F_q[X, Y] (Bostan, Caruso, Christol, Dumas,
ANTS XIII, 2018)

    Lambda_r(A(X, y)/P_Y(X, y)) = Lambda_{r,q-1}(A * P^(q-1))(X, y) / P_Y(X, y)

with Lambda_{r,s} the bivariate digit section, so the denominator stays
P_Y and a state is its numerator A, as in cartier.rational_kernel; both
take this step in cartier.numerator_images, which forms only the terms of
A * P^(q-1) in the sections kept.  With h = deg_X P and d = deg_Y P:

  * the start numerator Y*P_Y - d*P stands for y and has Y-degree < d;
  * if deg_X A <= h and deg_Y A < d, then A * P^(q-1) has bidegree at most
    (q*h, q*d - 1) and every section at (r, q-1) is back in that box, so
    no state has more than (h+1)*d terms;
  * on that box A -> A/P_Y is injective, as 1, y, ..., y^(d-1) is a basis
    of L over F_q(X), so the numerator is a sound state key.

On a branch f with residue a0, S_b = f^b/P_Y(X, f) for b < d costs one
series inverse and d-1 products; state A has the value sum A_ab X^a S_b,
exact to the order of f, and the output A(0, a0)/P_Y(0, a0).  A state's
label is the text of its numerator.

The check on K + 1 coefficients is a proof, with K = h*(2d - 1).  Let
s -> t on digit r be a transition and C = Lambda_{r,q-1}(A_s * P^(q-1)) - A_t,
a polynomial in the box deg_X <= h, deg_Y < d.  By the identity above,
Lambda_r(value_s) - value_t = C(X, f)/P_Y(X, f), and P_Y(X, f) is a unit,
so the transition holds on f iff C(X, f) = 0.  If C(X, f) != 0, then
val C(X, f) <= K:

  * let P_1 in F_q[X][Y] be the primitive minimal polynomial of f; it
    divides P, so deg_X P_1 <= h and e = deg_Y P_1 <= d;
  * f is not a root of C, so Res_Y(P_1, C) is a nonzero polynomial of
    X-degree at most h*(d - 1) + d*h = K, and its valuation is at most K;
  * Res_Y(P_1, C) = lc(P_1)^(deg_Y C) * prod_i C(alpha_i) over the roots
    alpha_1 = f, ..., alpha_e of P_1 in an algebraic closure of F_q((X));
    val C(alpha) >= deg_Y C * min(0, val alpha) as C has coefficients in
    F_q[X], and by the Newton polygon the roots of negative valuation have
    valuations summing to at least -val lc(P_1), so
    val Res >= deg_Y C * val lc(P_1) + val C(f) - deg_Y C * val lc(P_1).

So val C(X, f) <= val Res <= K.  With values to the skeleton's
certificate order M = q*K + q - 1, digit section r of a value reads
coefficients 0..K, and an agreement there makes C(X, f) = 0: every
transition holds exactly.  The outputs are the constant terms of the
values, so by induction on n = q*m + r, [X^n] value_s = [X^m] value_t is
the automaton's output from s on the digits of n: the automaton generates
every state's value at every index, the start state's value being f.  The
bound is tight for many P: a box C with val C(X, f) = K exists, and a
check that stops at coefficient K - 1 misses it.
"""

from dataclasses import dataclass

from .algebra.conv import accumulate, conv, newton_step, scale
from .algebra.polys import BiPoly, UniPoly, derivative_y
from .algebra.series import TruncSeries1, eval_bipoly_at_series
from .annihilator import (FrobeniusRelation, canonical_relation,
                          null_left_vector, primitive_part, verify_relation)
from .automaton import DFAO, close
from .cartier import digit_base, numerator_images
from .errors import (AlgSeriesError, DegenerateReduction, HypothesisViolated,
                     InfiniteField, InsufficientPrecision, NonSimpleRoot,
                     NotSquarefree, ZeroA0)

CLOSURE_BUDGET = 4096


def residue_roots(P):
    """(a, simple) for all raw a in F_q with P(0, a) = 0."""
    field = P.field
    if not field.is_finite:
        raise InfiniteField("residue roots require a finite field")
    p0 = P.eval_x(field.zero)
    if p0.is_zero():
        raise DegenerateReduction("P(0, Y) vanishes identically")
    py0 = derivative_y(P).eval_x(field.zero)
    out = []
    for a in field.elements():
        if not p0.evaluate(a):
            out.append((a, bool(py0.evaluate(a))))
    return out


def hensel_root(P, a0, order):
    """The unique series f with f(0) = a0 and P(X, f) = 0 mod X^(order+1).

    Newton update f <- f - g*P(X,f) with X-adic precision doubling, where
    g = 1/P_Y(X, f) is carried between steps instead of inverted afresh;
    needs the residue root to be simple.  Before the step from precision k
    to 2k, one Newton step g <- g + g*(1 - g*P_Y(X, f)) (conv.newton_step,
    the step of conv.inverse) takes g from precision k/2 to k, which is all
    the update needs, as P(X, f) = 0 mod X^k.  P and P_Y are evaluated by
    Horner's rule through the conv product kernel, so the lift costs a
    constant times one series product at the final order.
    """
    field = P.field
    if P.eval_x(field.zero).evaluate(a0):
        raise HypothesisViolated("a0 is not a residue root of P")
    PY = derivative_y(P)
    slope0 = PY.eval_x(field.zero).evaluate(a0)
    if not slope0:
        raise NonSimpleRoot("P_Y(0, a0) = 0; Newton lifting does not apply")
    minus = field.neg(field.one)
    f = [a0]  # the root mod X^k
    g = [field.inv(slope0)]  # 1/P_Y(X, f) mod X^len(g)
    k = 1
    while k <= order:
        if len(g) < k:
            slope = eval_bipoly_at_series(PY, TruncSeries1(field, f))
            g = newton_step(field, slope.coeffs, g, k)
        prec = min(2 * k, order + 1)
        value = eval_bipoly_at_series(P, TruncSeries1(field, f, prec - 1))
        # P(X, f) = X^k * v mod X^prec, and f has degree < k
        f += scale(field, minus, conv(field, value.coeffs[k:], g, prec - 1 - k))
        k = prec
    return TruncSeries1(field, f, order)


# -- polynomials in Y over F_q[X], as lists of UniPoly, constant term first --

def _ytrim(a):
    while a and a[-1].is_zero():
        a.pop()
    return a


def _prem(a, b):
    """(r, e) with lc(b)^e * a = r mod b and deg_Y r < deg_Y b."""
    r, e = list(a), 0
    lead, n = b[-1], len(b) - 1
    while len(r) > n:
        top = r.pop()
        if not top.is_zero():
            shift, minus = len(r) - n, -top
            r = [c * lead for c in r[:shift]] + \
                [UniPoly.dot(lead.field, [(c, lead), (minus, p)])
                 for c, p in zip(r[shift:], b)]
            e += 1
    return _ytrim(r), e


def frobenius_from_poly(P):
    """Minimal Frobenius relation satisfied by every series root of P.

    With L = lc_Y(P) and D = deg_Y P, rows N_k over F_q[X] with
    L^(a_k) * Y^(q^k) = sum_j N_k[j] Y^j mod P come from one D x D matrix:
    row j of M is L^(E-e_j) * (L^(e_j) * Y^(j*q) mod P), pseudo-remainders
    with E = max e_j.  As (sum_j c_j Y^j)^q = sum_j c_j(X^q) Y^(j*q) over
    F_q, N_(k+1) = N_k(X^q) * M and a_(k+1) = q*a_k + E.  The first
    dependency sum_k c_k N_k = 0 that one elimination pass finds gives the
    relation A_k = c_k * L^(a_k).  P must be squarefree in Y: the check is
    a primitive pseudo-remainder gcd of P and P_Y.

    That dependency has A_0 != 0.  Once gcd(P, P_Y) = 1, A = F_q(X)[Y]/(P)
    is etale over K = F_q(X), so the map K (x)_{K^q} A^q -> A is an
    isomorphism and q-th powers of K-linearly independent elements stay
    K-linearly independent.  A first dependency
    sum_{k>=1} A_k y^(q^k) = 0 without the k = 0 term would make
    y^q, ..., y^(q^m) dependent, hence y, ..., y^(q^(m-1)), an
    earlier dependency.  The ZeroA0 raise below guards that argument.
    """
    field = P.field
    if not field.is_finite:
        raise InfiniteField("Frobenius relations require a finite field")
    q = field.order
    D = P.deg_y
    if D < 1:
        raise HypothesisViolated("P must involve Y")
    zero, one = UniPoly.zero(field), UniPoly.one(field)
    slices = P.y_slices()
    pcoeffs = [slices.get(j, zero) for j in range(D + 1)]
    g = pcoeffs
    h = _ytrim([c.scale(field.from_int(j)) for j, c in enumerate(pcoeffs)][1:])
    while h:
        r = _prem(g, h)[0]
        g, h = h, (primitive_part(r) if r else r)
    if len(g) > 1:
        raise NotSquarefree("gcd(P, P_Y) has positive degree in Y")

    def padded(r):
        return r + [zero] * (D - len(r))

    L = pcoeffs[D]
    powers = [_prem([zero] * (j * q) + [one], pcoeffs) for j in range(D)]
    E = max(e for _, e in powers)
    M = [padded([c * L ** (E - e) for c in r]) for r, e in powers]
    first, a0 = _prem([zero, one], pcoeffs)
    exponents = []

    def rows():
        row, a = padded(first), a0
        for _ in range(D + 1):
            exponents.append(a)
            yield row
            spread = [c.subst_power(q) for c in row]
            row = [UniPoly.dot(field, [(c, m[i]) for c, m in zip(spread, M)])
                   for i in range(D)]
            a = q * a + E

    combo = null_left_vector(rows())
    if combo is None:
        raise AlgSeriesError("no dependency up to q^deg_Y; internal error")
    if combo[0].is_zero():
        raise ZeroA0("first dependency lacks the k=0 term for a "
                     "squarefree P; internal error")
    return canonical_relation([c * L ** e for c, e in zip(combo, exponents)], q)


@dataclass
class ClosureSkeleton:
    """Cartier closure of the formal root: numerators, transitions, no outputs.

    State A stands for A(X, y)/P_Y(X, y) in F_q(X)[Y]/(P); its label is
    the text of A.
    """

    field: object
    q: int
    poly: BiPoly
    states: list
    transitions: list

    @property
    def n_states(self):
        return len(self.states)

    @property
    def labels(self):
        return [A.to_text() for A in self.states]

    @property
    def certificate_order(self):
        """M = q*K + q - 1 with K = deg_X P * (2*deg_Y P - 1): values to
        order M give every digit section K + 1 coefficients, which prove a
        transition (module docstring)."""
        P = self.poly
        return self.q * (P.deg_x * (2 * P.deg_y - 1) + 1) - 1


def cartier_closure(P):
    """Close the root y of P under Lambda_0..Lambda_{q-1} on numerators.

    The start numerator is Y*P_Y - deg_Y(P)*P, as y = (Y*P_Y - d*P)/P_Y
    modulo P, and digit r maps A to Lambda_{r,q-1}(A * P^(q-1)).  P must be
    squarefree in Y, which frobenius_from_poly checks.  More than
    CLOSURE_BUDGET states raise StateBudgetExceeded.
    """
    field = P.field
    q = digit_base(field)
    start = derivative_y(P).mul_monomial(0, 1) - P.scale(field.from_int(P.deg_y))
    images = numerator_images(P, range(q * q - q, q * q))
    states, transitions = close(start, images, CLOSURE_BUDGET,
                                "Cartier closure")
    return ClosureSkeleton(field, q, P, states, transitions)


@dataclass
class BranchRoot:
    """One series root: raw residue a0 and its certified series."""

    a0: object
    series: TruncSeries1


def residue_outputs(skeleton, a0):
    """Each state's output on the branch with residue a0, A(0, a0)/P_Y(0, a0).

    That is sum_b A_0b * S_b(0), with S_b(0) = a0^b/P_Y(0, a0) the constant
    terms of the S_b of attach_outputs, which checks these outputs.
    """
    field, P = skeleton.field, skeleton.poly
    unit = field.inv(derivative_y(P).eval_x(field.zero).evaluate(a0))
    s0 = [field.mul(unit, field.pow(a0, b)) for b in range(P.deg_y)]
    outputs = []
    for A in skeleton.states:
        value = field.zero
        for (a, b), c in A.terms.items():
            if not a:
                value = field.add(value, field.mul(c, s0[b]))
        outputs.append(value)
    return outputs


def attach_outputs(skeleton, branch, automaton):
    """Check the branch's automaton on its series and return it.

    The branch series f must reach the skeleton's certificate order
    M = q*K + q - 1, K = deg_X P * (2*deg_Y P - 1), and is read to M only.
    With S_b = f^b/P_Y(X, f) for b < deg_Y P (one series inverse, then
    products by f), state A evaluates on f to sum A_ab X^a S_b, exact to
    order M; spot_check_closure then checks every transition on the
    K + 1 coefficients of its digit section, which proves it (module
    docstring).  The constant term of each value, A(0, a0)/P_Y(0, a0),
    must be the automaton's output of that state, else AlgSeriesError.
    Once both checks pass, the automaton generates f at every index.
    """
    field, P = skeleton.field, skeleton.poly
    order = skeleton.certificate_order
    if branch.series.order < order:
        raise InsufficientPrecision(
            f"branch series order {branch.series.order} below required "
            f"{order}")
    series = TruncSeries1(field, branch.series.coeffs[:order + 1])
    S = [eval_bipoly_at_series(derivative_y(P), series).inverse()]
    while len(S) < P.deg_y:
        S.append(S[-1] * series)

    def value(A):
        rows = [(a, c, S[b].coeffs[:order + 1 - a])
                for (a, b), c in A.terms.items()]
        return TruncSeries1(field, accumulate(field, [field.zero] * (order + 1),
                                              rows))

    values = [value(A) for A in skeleton.states]
    spot_check_closure(skeleton, values)
    outputs = tuple(value.coeffs[0] for value in values)
    if outputs != automaton.outputs:
        raise AlgSeriesError("the automaton's outputs are not the constant "
                             "terms of its states' values; internal error")
    return automaton


def spot_check_closure(skeleton, values):
    """Check every transition: Lambda_r(values[s]) == values[delta(s, r)].

    ``values[s]`` is closure state s evaluated on one branch.  Each (state,
    digit) pair is compared on every coefficient both truncations determine;
    a mismatch raises AlgSeriesError naming the state and the digit.  On
    values to the certificate order M = q*K + q - 1 that is coefficients
    0..K of the section.  The two sides differ by C(X, f)/P_Y(X, f) for a
    polynomial C in the box of the closure, and a nonzero C(X, f) has
    valuation at most K (module docstring), so the comparison proves the
    transition at every index, not only at the coefficients it reads.
    """
    q = skeleton.q
    for s, row in enumerate(skeleton.transitions):
        coeffs = values[s].coeffs
        for r, t in enumerate(row):
            read, other = coeffs[r::q], values[t].coeffs
            n = min(len(read), len(other))
            if read[:n] != other[:n]:
                raise AlgSeriesError(
                    f"closure check failed at state {s}, digit {r}")


@dataclass
class RootsOutcome:
    """Everything cmd-level callers need: relation, branches, diagnostics."""

    relation: FrobeniusRelation
    branches: list  # (BranchRoot, DFAO minimized) pairs
    skipped: list   # non-simple residue roots, reported not solved
    failures: list  # a0 values whose verification failed (expected empty)


def roots_automata(P, order):
    """One minimized DFAO per simple residue root of P.

    A branch's automaton is built once, the closure with the residue
    outputs A(0, a0)/P_Y(0, a0) and the skeleton's labels.  Its series g
    is generated to the order ``need`` that verify_relation and the
    branch series read, and is certified to every order by this chain,
    with M the skeleton's certificate order:

      1. P(X, g) = 0 mod X^(M+1), else AlgSeriesError; as a0 is simple,
         Hensel's lemma makes g = f mod X^(M+1) for the root f with
         f(0) = a0;
      2. so attach_outputs evaluates the true state values to order M;
      3. its closure check then proves every transition, and its output
         check every output (module docstring);
      4. so the automaton generates f at every index, and g = f
         mod X^(need+1) follows without substituting g into P to ``need``.

    The minimized DFAO must generate the same series through X^order;
    non-simple residue roots are recorded in ``skipped``.
    """
    field = P.field
    if not field.is_finite:
        raise InfiniteField("roots_automata requires a finite field")
    roots = residue_roots(P)
    simple = [a for a, ok in roots if ok]
    skipped = [a for a, ok in roots if not ok]
    if not simple:
        raise HypothesisViolated("P has no simple residue root")
    relation = frobenius_from_poly(P)
    skeleton = cartier_closure(P)
    M = skeleton.certificate_order
    # verify_relation checks the relation through X^order only if the series
    # reaches order + max deg A_k; attach_outputs reads it to M
    need = max(order + relation.max_coeff_degree(), M)
    labels = skeleton.labels
    branches = []
    failures = []
    for a0 in simple:
        dfao = DFAO(skeleton.q, field, 0, skeleton.transitions,
                    residue_outputs(skeleton, a0), labels)
        series = dfao.generate(need)
        # a0 is simple: no other series with g(0) = a0 annihilates P mod
        # X^(M+1); past M, attach_outputs proves the automaton exact
        head = TruncSeries1(field, series.coeffs, M)
        if not eval_bipoly_at_series(P, head).is_zero():
            raise AlgSeriesError(
                f"the closure automaton's series does not annihilate P mod "
                f"X^{M + 1}; internal error")
        branch = BranchRoot(a0=a0, series=series)
        minimized = attach_outputs(skeleton, branch, dfao).minimize()
        # the automaton generates f, so series = f mod X^(need+1) and
        # need >= order: an equal prefix makes the minimized automaton's
        # series the root mod X^(order+1)
        if minimized.generate(order).coeffs != series.coeffs[:order + 1]:
            failures.append(a0)
        branches.append((branch, minimized))
    if not verify_relation(relation, branches[0][0].series):
        failures.append("relation")
    return RootsOutcome(relation, branches, skipped, failures)
